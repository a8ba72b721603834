// Package obs is the unified observability layer of the simulator: a
// metrics registry every component reports its hardware event counts
// into, a bounded event tracer for post-hoc debugging of individual
// translations, and the harness-side diagnostics (logger, pprof hook)
// the reproduction commands share.
//
// The registry is deliberately pull-based: a component registers a
// pointer to the uint64 counter it already increments on its hot path
// (TLB hits, DAV identity checks, walk memory references, ...) and the
// registry reads the value only when a snapshot is taken. Being
// observable therefore costs the hot path nothing — no map lookup, no
// atomic, no allocation — which is what lets the registry stay enabled
// on every run (acceptance: zero allocations on the DAV/translation
// path, see BenchmarkTranslateInto).
//
// Naming scheme: dot-separated hierarchical paths, component first —
// `mmu.tlb.hits`, `mmu.avc.misses`, `iommu.dav.identity`,
// `memsys.accesses`, `accel.reads`, `runner.cells.done`. DESIGN.md §7
// documents the full vocabulary.
//
// Concurrency: a Registry belongs to one simulation run and is not
// itself goroutine-safe (simulations are single-goroutine); the
// Collector merges many runs' snapshots under a mutex, and because
// merging is a commutative sum, the merged snapshot of a parallel
// (-j N) sweep is byte-identical to the sequential one.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Registry is a per-run metrics registry: named counters registered by
// the components of one simulation.
type Registry struct {
	counters map[string]*uint64
	funcs    map[string]func() uint64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*uint64)}
}

// RegisterCounter attaches an externally-owned counter under name. The
// component keeps incrementing its own field; the registry reads it at
// snapshot time, so registration adds no hot-path cost. Registering a
// name twice replaces the previous source (the latest component owns
// the name, e.g. after a context switch rebuilds a structure).
func (r *Registry) RegisterCounter(name string, v *uint64) {
	if r == nil || v == nil {
		return
	}
	r.counters[name] = v
}

// RegisterFunc attaches a computed counter: fn is called at snapshot
// time and its result exported under name. Use it for values that are
// aggregates of several hot-path counters (e.g. a sum across SPARTA's
// per-shard TLBs) — the aggregation cost is paid per snapshot, never on
// the translation path. A func and a pointer counter under the same
// name resolve in favor of the func.
func (r *Registry) RegisterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	if r.funcs == nil {
		r.funcs = make(map[string]func() uint64)
	}
	r.funcs[name] = fn
}

// RegisterHistogram attaches an externally-owned histogram under name.
// Like RegisterCounter it is pull-based: the component keeps observing
// into its own fixed-size field and the registry reads the buckets only
// at snapshot time, so a registered histogram costs the hot path
// exactly one Observe (shift/compare arithmetic, no allocation).
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	r.hists[name] = h
}

// Snapshot reads every registered counter. The result is a value type:
// safe to retain, merge and export after the run has ended.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters)+len(r.funcs))}
	for name, v := range r.counters {
		s.Counters[name] = *v
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = h.Snapshot()
		}
	}
	return s
}

// Snapshot is a point-in-time reading of a registry (or a merge of
// several). The zero value is an empty snapshot. Hists is omitted from
// the JSON export when no histograms are registered, keeping
// counter-only snapshots byte-identical to the historical format.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Get returns a counter's value; missing names read as zero, so
// mode-dependent structures (no TLB under DVM-PE) need no special
// casing in cross-checks.
func (s Snapshot) Get(name string) uint64 { return s.Counters[name] }

// Merge sums snapshots counter-wise and histogram-bucket-wise.
// Addition is commutative, so the merge of a parallel sweep's per-cell
// snapshots is independent of completion order — the property the -j
// determinism tests pin down. Merged percentiles are re-derived from
// the summed buckets, never combined from per-cell percentiles.
func Merge(snaps ...Snapshot) Snapshot {
	m := Snapshot{Counters: make(map[string]uint64)}
	for _, s := range snaps {
		for name, v := range s.Counters {
			m.Counters[name] += v
		}
		for name, h := range s.Hists {
			if m.Hists == nil {
				m.Hists = make(map[string]HistSnapshot)
			}
			cur := m.Hists[name]
			cur.merge(h)
			m.Hists[name] = cur
		}
	}
	return m
}

// Names returns the counter names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON exports the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), terminated by a newline. The format
// is stable and covered by a golden-file test.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Collector accumulates snapshots from concurrent experiment cells
// into one merged snapshot. All methods are goroutine-safe and
// nil-safe (a nil Collector discards everything), so harness code can
// thread an optional collector without guarding every call site. The
// zero value is ready to use.
type Collector struct {
	mu    sync.Mutex
	sum   map[string]uint64
	hists map[string]*HistSnapshot
	// volatile holds host-time distributions (per-cell wall time) that
	// are real measurements but not deterministic: they are served on
	// the live /metrics surface and never enter Snapshot(), whose JSON
	// export is byte-compared across -j values and resumed runs.
	volatile map[string]*Histogram
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{sum: make(map[string]uint64)}
}

// Add merges one cell's snapshot into the collector.
func (c *Collector) Add(s Snapshot) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sum == nil {
		c.sum = make(map[string]uint64, len(s.Counters))
	}
	for name, v := range s.Counters {
		c.sum[name] += v
	}
	for name, h := range s.Hists {
		if c.hists == nil {
			c.hists = make(map[string]*HistSnapshot)
		}
		cur, ok := c.hists[name]
		if !ok {
			cur = &HistSnapshot{}
			c.hists[name] = cur
		}
		cur.merge(h)
	}
}

// Inc adds n to a harness-level counter (e.g. runner.cells.done).
func (c *Collector) Inc(name string, n uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.sum == nil {
		c.sum = make(map[string]uint64)
	}
	c.sum[name] += n
	c.mu.Unlock()
}

// Observe records one value into a volatile host-side histogram (e.g.
// runner.cell.wall.us). Volatile distributions appear only in
// VolatileSnapshot — the live /metrics surface — never in Snapshot,
// whose export must stay deterministic.
func (c *Collector) Observe(name string, v uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.volatile == nil {
		c.volatile = make(map[string]*Histogram)
	}
	h, ok := c.volatile[name]
	if !ok {
		h = &Histogram{}
		c.volatile[name] = h
	}
	h.Observe(v)
	c.mu.Unlock()
}

// Snapshot returns the merged deterministic totals collected so far:
// counters and the bucket-wise merged histograms, with percentiles
// re-derived from the merged buckets.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{Counters: map[string]uint64{}}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(c.sum))}
	for name, v := range c.sum {
		s.Counters[name] = v
	}
	if len(c.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(c.hists))
		for name, h := range c.hists {
			s.Hists[name] = *h
		}
	}
	return s
}

// VolatileSnapshot returns the host-time distributions recorded via
// Observe. They are measurements of this process, not of the simulated
// machine, and are therefore kept out of the deterministic export.
func (c *Collector) VolatileSnapshot() Snapshot {
	if c == nil {
		return Snapshot{Counters: map[string]uint64{}}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Counters: map[string]uint64{}}
	if len(c.volatile) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(c.volatile))
		for name, h := range c.volatile {
			s.Hists[name] = h.Snapshot()
		}
	}
	return s
}

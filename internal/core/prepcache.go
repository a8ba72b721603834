package core

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/runner"
)

// PreparedCache deduplicates workload preparation across report
// generators and parallel workers. Figures 2/8 and Tables 5/6/7 all
// iterate the same evaluation matrix, so without a cache each generator
// regenerates the same graphs; with one, the first caller generates and
// every later caller — concurrent or not — shares the same *Prepared,
// and with it the Prepared's own page-table cache.
//
// Workload is a comparable value (the dataset spec is all scalars), so it
// keys the map directly. Entries are never evicted: the cache's lifetime
// is one report run, and the tiny/full matrices are small and bounded.
//
// Table 1 reads layout-only Prepareds (PrepareLayout), single-flight
// per workload like full ones but generating no graph. Table 3 reads
// dataset shapes (graph.DatasetSpec.Shape) and never comes here.
//
// Graphs are shared one level down: each (dataset, scale, seed) is
// generated once, so the three algorithms reading S24 share one
// *graph.Graph (Workload keys include Algorithm; graph keys do not).
// A cache built with NewPreparedCacheDir also serializes each graph to
// dir as an on-disk CSR and memory-maps it read-only, so separate
// processes (repeat runs) share it through the page cache.
type PreparedCache struct {
	mu      sync.Mutex
	m       map[Workload]*prepEntry
	layouts map[Workload]*prepEntry
	graphs  map[graphKey]*graphEntry

	// dir, when non-empty, enables the on-disk graph cache.
	dir string
}

type prepEntry struct {
	once sync.Once
	p    *Prepared
	err  error
}

// graphKey identifies one generated dataset instance: (spec, scale,
// seed) pins the exact bit pattern.
type graphKey struct {
	dataset graph.DatasetSpec
	scale   float64
	seed    int64
}

type graphEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

// NewPreparedCache returns an empty cache (in-memory graphs, the
// default path).
func NewPreparedCache() *PreparedCache {
	return &PreparedCache{
		m:       make(map[Workload]*prepEntry),
		layouts: make(map[Workload]*prepEntry),
		graphs:  make(map[graphKey]*graphEntry),
	}
}

// NewPreparedCacheDir returns a cache that backs graphs with on-disk
// CSR files under dir, built once per (dataset, scale, seed) and
// memory-mapped read-only (graph.OpenMMap). An unwritable or damaged
// cache degrades to in-memory generation; results are byte-identical
// either way.
func NewPreparedCacheDir(dir string) *PreparedCache {
	c := NewPreparedCache()
	c.dir = dir
	return c
}

// Prepare is a single-flight core.Prepare: concurrent callers with the
// same workload block on one generation and share the result. A nil
// receiver degrades to plain Prepare (no sharing), so callers can thread
// an optional cache without branching.
func (c *PreparedCache) Prepare(w Workload) (*Prepared, error) {
	return c.PrepareB(w, nil)
}

// PrepareB is Prepare lending generation a shared worker budget (the CSR
// build parallelism of core.PrepareB); the prepared workload is
// bit-identical at every budget population.
func (c *PreparedCache) PrepareB(w Workload, b *runner.Budget) (*Prepared, error) {
	if c == nil {
		return PrepareB(w, b)
	}
	e := c.entry(c.m, w)
	e.once.Do(func() {
		nw := w.normalized()
		prog, err := nw.check()
		if err != nil {
			e.err = err
			return
		}
		g, err := c.graphFor(nw.Dataset, nw.Scale, nw.Seed, b)
		if err != nil {
			e.err = err
			return
		}
		e.p = withGraph(nw, prog, g)
	})
	return e.p, e.err
}

// PrepareLayout is a single-flight core.PrepareLayout: the workload's
// layout-only Prepared, which generates no graph. A nil receiver
// degrades to plain PrepareLayout.
func (c *PreparedCache) PrepareLayout(w Workload) (*Prepared, error) {
	if c == nil {
		return PrepareLayout(w)
	}
	e := c.entry(c.layouts, w)
	e.once.Do(func() { e.p, e.err = PrepareLayout(w) })
	return e.p, e.err
}

// entry returns w's slot in m, one of the cache's Prepared maps,
// creating it on first use.
func (c *PreparedCache) entry(m map[Workload]*prepEntry, w Workload) *prepEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := m[w]
	if !ok {
		e = &prepEntry{}
		m[w] = e
	}
	return e
}

// graphFor resolves the shared graph for (d, scale, seed), single-flight
// across algorithms and workers.
func (c *PreparedCache) graphFor(d graph.DatasetSpec, scale float64, seed int64, b *runner.Budget) (*graph.Graph, error) {
	key := graphKey{dataset: d, scale: scale, seed: seed}
	c.mu.Lock()
	e, ok := c.graphs[key]
	if !ok {
		e = &graphEntry{}
		c.graphs[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.g, e.err = c.loadGraph(key, b) })
	return e.g, e.err
}

// loadGraph generates the graph for key, in memory or, with a cache
// dir, through the dataset's on-disk CSR: opened if present, generated
// and serialized first on a miss. Cache failures (unwritable dir,
// damaged file that also fails to rewrite) fall back to the generated
// in-memory graph so a broken cache can slow a run but never change or
// fail it.
func (c *PreparedCache) loadGraph(key graphKey, b *runner.Budget) (*graph.Graph, error) {
	if c.dir == "" {
		return key.dataset.GenerateB(key.scale, key.seed, b)
	}
	path := filepath.Join(c.dir, fmt.Sprintf("%s_s%g_seed%d.dvmcsr", key.dataset.Name, key.scale, key.seed))
	if g, err := graph.OpenMMap(path); err == nil {
		return g, nil
	}
	built, err := key.dataset.GenerateB(key.scale, key.seed, b)
	if err != nil {
		return nil, err
	}
	if err := graph.WriteFile(built, path); err != nil {
		return built, nil
	}
	g, err := graph.OpenMMap(path)
	if err != nil {
		return built, nil
	}
	// The in-memory build just became garbage; hand its pages back to
	// the OS now rather than letting them sit in RSS until the
	// background scavenger gets around to it. One forced GC per
	// (dataset, scale, seed) build is noise next to the build itself,
	// and it keeps the out-of-core footprint story honest: after this
	// point the dataset's only copy is the mapping.
	built = nil
	debug.FreeOSMemory()
	return g, nil
}

// Close releases any memory-mapped graphs the cache holds. Prepared
// workloads obtained from the cache must not be used afterwards.
func (c *PreparedCache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, e := range c.graphs {
		if e.g != nil {
			if err := e.g.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

package obs

import (
	"fmt"
	"io"
	"sync"
)

// Component identifies which simulated structure emitted an event; the
// tracer's enable mask selects components by these bits.
type Component uint8

// Traceable components.
const (
	// CompIOMMU is the IOMMU front-end (DAV checks, walks, faults).
	CompIOMMU Component = iota
	// CompTLB is a translation lookaside buffer (fills/evictions).
	CompTLB
	// CompPWC is the conventional page-walk cache.
	CompPWC
	// CompAVC is the Access Validation Cache.
	CompAVC
	// CompBMCache is the DVM-BM bitmap cache.
	CompBMCache
	// CompBitmap is the in-memory DVM-BM permission bitmap.
	CompBitmap
	// CompEngine is the accelerator engine.
	CompEngine
	// CompChaos is the fault-injection layer (internal/chaos).
	CompChaos
	// CompBlock is the VBI block-translation cache and block table.
	CompBlock
	numComponents
)

// Aux flag bits shared by DAV events. The low bits of Aux carry the
// access kind; flags above bit 8 qualify the event.
const (
	// AuxBMCacheHit marks a DVM-BM DAV outcome that was resolved from the
	// bitmap cache (no in-memory bitmap reference was needed).
	AuxBMCacheHit uint64 = 1 << 8
)

// String returns the component's registry-style name.
func (c Component) String() string {
	switch c {
	case CompIOMMU:
		return "iommu"
	case CompTLB:
		return "tlb"
	case CompPWC:
		return "pwc"
	case CompAVC:
		return "avc"
	case CompBMCache:
		return "bmcache"
	case CompBitmap:
		return "bitmap"
	case CompEngine:
		return "engine"
	case CompChaos:
		return "chaos"
	case CompBlock:
		return "block"
	default:
		return fmt.Sprintf("comp(%d)", uint8(c))
	}
}

// Mask is a per-component enable bitmask.
type Mask uint32

// MaskAll enables every component.
const MaskAll Mask = 1<<numComponents - 1

// ParseMask parses a comma-separated component list ("iommu,avc"), or
// "all" / "" for every component.
func ParseMask(s string) (Mask, error) {
	if s == "" || s == "all" {
		return MaskAll, nil
	}
	var m Mask
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ',' {
			continue
		}
		name := s[start:i]
		start = i + 1
		found := false
		for c := Component(0); c < numComponents; c++ {
			if c.String() == name {
				m |= 1 << c
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace component %q (have iommu,tlb,pwc,avc,bmcache,bitmap,engine,chaos,block,all)", name)
		}
	}
	return m, nil
}

// EventKind is the type of one simulation event.
type EventKind uint8

// Event kinds.
const (
	// EvDAVCheck: the IOMMU started validating one access (VA, kind in Aux).
	EvDAVCheck EventKind = iota
	// EvDAVIdentity: the access validated as identity mapped (PA == VA).
	EvDAVIdentity
	// EvDAVFallback: the page was not identity mapped; a real translation
	// was required.
	EvDAVFallback
	// EvPreloadIssue: DVM-PE+ launched the data fetch in parallel with
	// validation.
	EvPreloadIssue
	// EvPreloadSquash: a launched preload predicted PA==VA wrongly and was
	// discarded (Aux: wasted memory reference).
	EvPreloadSquash
	// EvFill: a structure cached a new entry (VA/PA identify it).
	EvFill
	// EvEvict: a valid entry was displaced (Aux: victim tag/vpn).
	EvEvict
	// EvWalk: a page-table walk completed (Aux: memory references issued).
	EvWalk
	// EvFault: validation/translation failed; exception raised on the host.
	EvFault
	// EvMemRef: a validation-path memory reference (bitmap line read).
	EvMemRef
	// EvCtxSwitch: the IOMMU was retargeted at another address space.
	EvCtxSwitch
	// EvInject: the chaos layer injected one simulated fault (Aux: site).
	EvInject
)

// String returns the kind's trace-format name.
func (k EventKind) String() string {
	switch k {
	case EvDAVCheck:
		return "dav.check"
	case EvDAVIdentity:
		return "dav.identity"
	case EvDAVFallback:
		return "dav.fallback"
	case EvPreloadIssue:
		return "preload.issue"
	case EvPreloadSquash:
		return "preload.squash"
	case EvFill:
		return "fill"
	case EvEvict:
		return "evict"
	case EvWalk:
		return "walk"
	case EvFault:
		return "fault"
	case EvMemRef:
		return "memref"
	case EvCtxSwitch:
		return "ctxswitch"
	case EvInject:
		return "inject"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one typed simulation event. Fixed-size so the tracer's ring
// buffer never allocates per event.
type Event struct {
	// Seq is the global emission order (1-based).
	Seq  uint64
	Comp Component
	Kind EventKind
	// VA / PA are the addresses involved (zero when not applicable).
	VA uint64
	PA uint64
	// Aux is kind-specific: walk memory references, victim tag, access
	// kind of a DAV check.
	Aux uint64
}

// Tracer records simulation events into a bounded ring buffer: the last
// `capacity` events survive, which is what post-hoc debugging of a
// single translation needs without unbounded memory. Emit is
// goroutine-safe (parallel -j sweeps may share one tracer; Seq then
// reflects global emission order, which interleaves cells
// nondeterministically — traces are a debugging artifact, not a
// determinism-checked output). A nil *Tracer is valid and disabled:
// every method no-ops, so components pay one nil check when tracing is
// off.
type Tracer struct {
	mu    sync.Mutex
	mask  Mask
	buf   []Event
	next  int
	total uint64
}

// NewTracer creates a tracer keeping the last capacity events of the
// enabled components (capacity <= 0 defaults to 64 Ki events).
func NewTracer(capacity int, mask Mask) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{mask: mask, buf: make([]Event, 0, capacity)}
}

// Wants reports whether events from the component are recorded; use it
// to skip argument computation on hot paths when tracing is off.
func (t *Tracer) Wants(c Component) bool {
	return t != nil && t.mask&(1<<c) != 0
}

// Emit records one event (dropped unless the component is enabled).
func (t *Tracer) Emit(c Component, k EventKind, va, pa, aux uint64) {
	if !t.Wants(c) {
		return
	}
	t.mu.Lock()
	t.total++
	ev := Event{Seq: t.total, Comp: c, Kind: k, VA: va, PA: pa, Aux: aux}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next = (t.next + 1) % len(t.buf)
	}
	t.mu.Unlock()
}

// Total returns how many events were emitted (including any the ring
// has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many emitted events the ring has overwritten
// (total emitted minus retained). Ring contents interleave
// nondeterministically under -j, but the drop *count* depends only on
// total emissions versus capacity, so it is safe to export as a
// registry counter.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Register publishes the tracer's drop counter as trace.dropped. A
// tracer is shared by every cell of a sweep, so per-run registries
// must not read it mid-sweep (the reading would depend on cell
// completion order); the commands instead fold the final count into
// the export collector when the trace is flushed.
func (t *Tracer) Register(reg *Registry) {
	if t == nil {
		return
	}
	reg.RegisterFunc("trace.dropped", t.Dropped)
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteJSONL exports the retained events as one JSON object per line:
//
//	{"seq":12,"comp":"avc","kind":"fill","va":"0x7f0012000","pa":"0x7f0012000","aux":0}
//
// The header line records totals so a truncated ring is
// self-describing: dropped = emitted - events is how many oldest
// events the ring overwrote.
//
//	{"trace":"dvm","events":900,"emitted":12345,"dropped":11445}
func (t *Tracer) WriteJSONL(w io.Writer) error {
	events := t.Events()
	if _, err := fmt.Fprintf(w, "{\"trace\":\"dvm\",\"events\":%d,\"emitted\":%d,\"dropped\":%d}\n",
		len(events), t.Total(), t.Dropped()); err != nil {
		return err
	}
	for _, ev := range events {
		_, err := fmt.Fprintf(w, "{\"seq\":%d,\"comp\":%q,\"kind\":%q,\"va\":\"0x%x\",\"pa\":\"0x%x\",\"aux\":%d}\n",
			ev.Seq, ev.Comp.String(), ev.Kind.String(), ev.VA, ev.PA, ev.Aux)
		if err != nil {
			return err
		}
	}
	return nil
}

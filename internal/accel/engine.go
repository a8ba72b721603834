package accel

import (
	"fmt"
	"math/bits"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
)

// Config shapes the accelerator hardware (paper Table 2).
type Config struct {
	// PEs is the number of processing engines (default 8).
	PEs int
	// MLP is the number of outstanding memory accesses each engine
	// sustains (the pipelines are deep enough to hide latency when the
	// memory system keeps up).
	MLP int
}

func (c Config) withDefaults() Config {
	if c.PEs == 0 {
		c.PEs = 8
	}
	if c.MLP == 0 {
		c.MLP = 8
	}
	return c
}

// RunStats is the outcome of one accelerator run.
type RunStats struct {
	// Cycles is the total execution time in accelerator cycles (1 GHz).
	Cycles uint64
	// Iterations executed.
	Iterations int
	// Accesses, Reads, Writes count accelerator memory requests.
	Accesses uint64
	Reads    uint64
	Writes   uint64
	// EdgesProcessed counts processEdge invocations.
	EdgesProcessed uint64
	// VerticesApplied counts apply invocations.
	VerticesApplied uint64
	// Faults counts validation/translation faults (should be zero for
	// well-formed workloads).
	Faults uint64
}

// Engine executes a vertex program on the simulated accelerator, producing
// both the functional result and the cycle cost of every memory access as
// validated/translated by the IOMMU and serviced by the memory system.
type Engine struct {
	cfg   Config
	g     *graph.Graph
	prog  Program
	lay   Layout
	iommu *mmu.IOMMU
	mem   *memsys.Controller

	// The V-sized buffers all come from the pools (pool.go) with
	// capacity for their largest possible contents, so no append in a
	// run ever regrows them: props and temps, the frontier and the
	// next-frontier buffer it ping-pongs with, the touched list and its
	// mark bitset, the activation arena the apply streams append into
	// (one ceil(V/PEs) segment per PE) and the cached all-vertices
	// apply list.
	props       []float64
	temps       []float64
	frontier    []int32
	nextBuf     []int32
	touched     []int32
	touchedMark bitset
	arena       []int32
	allVerts    []int32

	// Scheduler and per-phase scratch, sized on first use so the
	// steady-state run loop allocates nothing: per-PE scheduler state
	// and MLP rings, the ready-time winner tree, the phase stream
	// slices and the apply streams' activation lists.
	pes        []peState
	ringBuf    []uint64
	tree       []uint64
	streamBuf  []stream
	scatterBuf []scatterStream
	applyBuf   []applyStream
	results    [][]int32

	// Phase-stepped run state (see Step): the iteration counter, which
	// half of the iteration runs next (0 = scatter, 1 = apply), and
	// whether the run has completed.
	iter    int
	half    int
	runDone bool

	stats RunStats
	plan  mmu.Plan
	now   uint64 // global barrier time
	// mlpHist is the MLP ring-occupancy distribution: how many of the
	// issuing PE's MLP slots were still outstanding at each issue. A
	// value field observed with fixed-size arithmetic, so the replay
	// loop stays allocation-free.
	mlpHist obs.Histogram

	// spans, when non-nil, records replay phase spans (wall time, a
	// debugging artifact; never part of results).
	spans *obs.SpanRecorder
}

// NewEngine assembles an engine. The layout must have been built with the
// program's PropBytes.
func NewEngine(cfg Config, g *graph.Graph, prog Program, lay Layout, iommu *mmu.IOMMU, mem *memsys.Controller) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if lay.PropBytes != prog.PropBytes {
		return nil, fmt.Errorf("accel: layout PropBytes %d != program PropBytes %d", lay.PropBytes, prog.PropBytes)
	}
	if g == nil || iommu == nil || mem == nil {
		return nil, fmt.Errorf("accel: engine needs graph, IOMMU and memory controller")
	}
	e := &Engine{cfg: cfg, g: g, prog: prog, lay: lay, iommu: iommu, mem: mem}
	// Every V-sized buffer is pooled. finishRun returns the run scratch;
	// props are the functional result Props() hands out, so they stay
	// until Release.
	e.props = poolF64.get(g.V)
	e.temps = poolF64.get(g.V)
	e.touchedMark = newBitset(g.V)
	for v := 0; v < g.V; v++ {
		e.props[v] = prog.InitProp(v, g)
		e.temps[v] = prog.ReduceIdentity
	}
	// The touched list holds each vertex at most once, and so does every
	// later frontier (it is drawn from the touched list), so V bounds
	// them; only the initial frontier is the program's to size.
	init := prog.InitialFrontier(g)
	e.frontier = poolI32.get(max(len(init), g.V))[:len(init)]
	copy(e.frontier, init)
	e.touched = poolI32.get(g.V)[:0]
	if !prog.AllActive {
		// Frontier-driven programs collect activations: a PE's apply
		// chunk is at most ceil(V/PEs) vertices, so one segment that
		// size per PE never overflows.
		e.nextBuf = poolI32.get(g.V)[:0]
		e.arena = poolI32.get(cfg.PEs * e.segment())
	}
	return e, nil
}

// segment is the per-PE activation segment length, ceil(V/PEs).
func (e *Engine) segment() int { return (e.g.V + e.cfg.PEs - 1) / e.cfg.PEs }

// Props returns the vertex properties (the functional result), or nil
// after Release.
func (e *Engine) Props() []float64 { return e.props }

// Release returns every buffer the engine still holds, props included,
// to the buffer pools, so the next engine reuses them instead of
// allocating. Props() returns nil afterwards and the engine runs no
// further phases; a caller that does not need the properties calls it
// once the run is done.
func (e *Engine) Release() {
	e.runDone = true
	e.releaseScratch()
	poolF64.put(e.props)
	e.props = nil
}

// SetSpans attaches a phase-span recorder; nil (the default) disables
// span recording at the cost of one nil check per phase.
func (e *Engine) SetSpans(sp *obs.SpanRecorder) { e.spans = sp }

// Stats returns the statistics accumulated so far.
func (e *Engine) Stats() RunStats { return e.stats }

// RegisterMetrics publishes the engine's run statistics under prefix
// (e.g. "accel" yields accel.accesses, accel.reads, ...). The
// registered pointers are the RunStats fields the run loop increments,
// so the access hot path is untouched; Cycles is written when Run
// completes, before any end-of-run snapshot is taken.
func (e *Engine) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+".cycles", &e.stats.Cycles)
	reg.RegisterCounter(prefix+".accesses", &e.stats.Accesses)
	reg.RegisterCounter(prefix+".reads", &e.stats.Reads)
	reg.RegisterCounter(prefix+".writes", &e.stats.Writes)
	reg.RegisterCounter(prefix+".edges", &e.stats.EdgesProcessed)
	reg.RegisterCounter(prefix+".vertices.applied", &e.stats.VerticesApplied)
	reg.RegisterCounter(prefix+".faults", &e.stats.Faults)
	reg.RegisterHistogram(prefix+".mlp.occupancy", &e.mlpHist)
}

// access is one accelerator memory request.
type access struct {
	va   addr.VA
	kind addr.AccessKind
}

// stream produces a PE's access sequence for one phase.
type stream interface {
	next() (access, bool)
}

// Run executes the program to completion (frontier empty or MaxIters) and
// returns the statistics.
func (e *Engine) Run() (RunStats, error) {
	for e.Step() {
	}
	return e.stats, nil
}

// Step advances the run by exactly one phase — a scatter or an apply —
// and reports whether more phases remain. Run is `for e.Step() {}`; the
// stepped form lets tests observe one phase at a time (the zero-alloc
// pins step a steady-state iteration).
func (e *Engine) Step() bool {
	if e.runDone {
		return false
	}
	if e.half == 0 {
		if len(e.frontier) == 0 || (e.prog.MaxIters > 0 && e.iter >= e.prog.MaxIters) {
			e.finishRun()
			return false
		}
		e.stepScatter()
		e.half = 1
		return true
	}
	e.stepApply()
	e.half = 0
	e.iter++
	return true
}

// finishRun seals the statistics and returns the engine's run scratch
// to the buffer pools — props (the functional result) stay.
func (e *Engine) finishRun() {
	e.stats.Iterations = e.iter
	e.stats.Cycles = e.now
	e.runDone = true
	e.releaseScratch()
}

// releaseScratch returns every pooled buffer but props; a second call
// finds them nil and puts nothing.
func (e *Engine) releaseScratch() {
	poolF64.put(e.temps)
	e.touchedMark.release()
	for _, s := range [...][]int32{e.frontier, e.nextBuf, e.touched, e.arena, e.allVerts} {
		poolI32.put(s)
	}
	e.temps, e.touchedMark = nil, nil
	e.frontier, e.nextBuf, e.touched, e.arena, e.allVerts = nil, nil, nil, nil, nil
}

// phasePools sizes the per-phase scratch pools and returns the stream
// slice.
func (e *Engine) phasePools() []stream {
	npe := e.cfg.PEs
	if cap(e.streamBuf) < npe {
		e.streamBuf = make([]stream, npe)
		e.scatterBuf = make([]scatterStream, npe)
		e.applyBuf = make([]applyStream, npe)
		e.results = make([][]int32, npe)
	}
	return e.streamBuf[:npe]
}

// stepScatter runs one scatter (process/reduce) phase as a set of
// concurrently timed PE streams ending in a barrier. All phase scratch
// comes from the engine's pools.
func (e *Engine) stepScatter() {
	npe := e.cfg.PEs
	streams := e.phasePools()
	e.touched = e.touched[:0]

	// The frontier is interleaved across PEs, Graphicionado's
	// vertex-id-interleaved partitioning.
	scatter := e.scatterBuf[:npe]
	for pe := 0; pe < npe; pe++ {
		scatter[pe] = scatterStream{e: e, pe: pe, stride: npe, vi: pe}
		streams[pe] = &scatter[pe]
	}
	scatterSpan := e.spans.Begin("replay:scatter")
	e.runStreams(streams)
	scatterSpan.End()
}

// stepApply runs one apply phase and completes the iteration (temps
// reset, frontier ping-pong).
func (e *Engine) stepApply() {
	npe := e.cfg.PEs
	streams := e.phasePools()
	results := e.results[:npe]

	// Apply: over all vertices (AllActive programs that request it via
	// ApplyAll semantics — PageRank) or over the touched destinations.
	var applyList []int32
	if e.prog.AllActive && !e.g.Bipartite {
		if e.allVerts == nil {
			e.allVerts = poolI32.get(e.g.V)
			for i := range e.allVerts {
				e.allVerts[i] = int32(i)
			}
		}
		applyList = e.allVerts
	} else {
		applyList = e.touched
	}
	apply := e.applyBuf[:npe]
	chunk := (len(applyList) + npe - 1) / npe
	seg := e.segment()
	for pe := 0; pe < npe; pe++ {
		lo := pe * chunk
		hi := lo + chunk
		if lo > len(applyList) {
			lo = len(applyList)
		}
		if hi > len(applyList) {
			hi = len(applyList)
		}
		if e.arena != nil {
			// chunk <= seg, so appends stay inside the PE's segment.
			results[pe] = e.arena[pe*seg : pe*seg : (pe+1)*seg]
		}
		apply[pe] = applyStream{e: e, verts: applyList[lo:hi], collect: !e.prog.AllActive, activated: &results[pe]}
		streams[pe] = &apply[pe]
	}
	applySpan := e.spans.Begin("replay:apply")
	e.runStreams(streams)
	applySpan.End()

	// Reset temporaries of touched vertices, clear marks, and build the
	// next frontier.
	for _, v := range e.touched {
		e.temps[v] = e.prog.ReduceIdentity
		e.touchedMark.clear(v)
	}
	if e.prog.AllActive {
		// Frontier repeats (PageRank: all vertices; CF: the users).
		return
	}
	next := e.nextBuf[:0]
	for _, r := range results {
		next = append(next, r...)
	}
	// Ping-pong: the outgoing frontier's backing array becomes the next
	// iteration's scratch buffer.
	e.nextBuf = e.frontier[:0]
	e.frontier = next
}

// peState is one PE's scheduler state within a phase.
type peState struct {
	s       stream
	clock   uint64   // earliest next issue
	ring    []uint64 // completion times of the last MLP accesses
	ringIdx int
	pending access
}

// runStreams prices the PEs' access streams against the IOMMU and memory
// system, merged in global time order so channel contention is causal. Each
// PE issues at most one access per cycle and keeps at most MLP outstanding.
//
// The next PE to issue is the one with the earliest ready time
// max(clock, oldest MLP slot), the lowest index winning ties. Each PE
// with a pending access holds one packed key ready<<peBits | pe, so a
// single integer compare gives that (ready, PE) order. The keys sit in
// the leaves of a winner tree (a PE with nothing pending holds the
// all-ones key, which no real key can equal since pe < 2^peBits-1) and
// the root is the next issuer. A PE's ready time changes only when it
// issues, so after each issue only that PE's leaf-to-root path is
// replayed, one branch-free min per level. next() has side effects on
// shared engine state, so its global call order is part of the modeled
// behaviour: the initial fill polls PEs in index order and each
// subsequent poll refills only the PE that just issued.
//
// Because a pushed key is exactly the one the PE will issue with, the
// MLP occupancy of that issue (how many of the PE's slots are still
// outstanding at its issue cycle) is counted and observed when the key
// is computed, off the pop-to-issue path. Every PE starts with an idle
// ring, so the initial fill observes 0 for each PE that has an access.
func (e *Engine) runStreams(streams []stream) {
	n := len(streams)
	mlp := e.cfg.MLP
	if cap(e.pes) < n || cap(e.ringBuf) < n*mlp {
		e.pes = make([]peState, n)
		e.ringBuf = make([]uint64, n*mlp)
	}
	e.pes = e.pes[:n]
	pes := e.pes
	peBits := uint(bits.Len(uint(n)))
	peMask := uint64(1)<<peBits - 1
	const idle = ^uint64(0)
	// Leaves at t[m:m+n] (m is n rounded up to a power of two), internal
	// node j holding min(t[2j], t[2j+1]), the root at t[1].
	m := 1 << bits.Len(uint(n-1))
	if cap(e.tree) < 2*m {
		e.tree = make([]uint64, 2*m)
	}
	t := e.tree[:2*m]
	for i := range t[m:] {
		t[m+i] = idle
	}
	for i := range pes {
		ring := e.ringBuf[i*mlp : (i+1)*mlp]
		for j := range ring {
			ring[j] = e.now
		}
		pes[i] = peState{s: streams[i], clock: e.now, ring: ring}
		if a, ok := pes[i].s.next(); ok {
			pes[i].pending = a
			t[m+i] = e.now<<peBits | uint64(i)
			e.mlpHist.Observe(0)
		}
	}
	for j := m - 1; j >= 1; j-- {
		t[j] = min(t[2*j], t[2*j+1])
	}
	endTime := e.now
	for t[1] != idle {
		pe := int(t[1] & peMask)
		bestT := t[1] >> peBits
		p := &pes[pe]
		completion := e.priceAccess(pe, p.pending, bestT)
		p.ring[p.ringIdx] = completion
		p.ringIdx++
		if p.ringIdx == mlp {
			p.ringIdx = 0
		}
		p.clock = bestT + 1
		if completion > endTime {
			endTime = completion
		}
		key := idle
		if a, ok := p.s.next(); ok {
			p.pending = a
			ready := max(p.clock, p.ring[p.ringIdx])
			// The key-range check below keeps every time under
			// 2^63, so the sign bit of ready-c is exactly c > ready.
			occ := uint64(0)
			for _, c := range p.ring {
				occ += (ready - c) >> 63
			}
			e.mlpHist.Observe(occ)
			key = ready<<peBits | uint64(pe)
		}
		// Replay the path with the new key held in a register: each
		// level reads only the sibling, so no load waits on the store
		// below it.
		j := m + pe
		t[j] = key
		for ; j > 1; j >>= 1 {
			key = min(key, t[j^1])
			t[j>>1] = key
		}
	}
	// Accesses complete no earlier than they issue, so every ready time
	// the phase packed is at most endTime+1 (an MLP slot, or one past an
	// issue cycle): checking that bound once covers every key.
	if (endTime+1)>>(64-peBits) != 0 {
		panic(fmt.Sprintf("accel: phase end time %d overflows the scheduler key (%d PEs leave %d bits for time)",
			endTime, n, 64-peBits))
	}
	e.now = endTime
	// Drop stream references so pooled state never pins a finished
	// phase's streams.
	for i := range pes {
		pes[i].s = nil
	}
}

// priceAccess runs PE pe's access through DAV/translation and the memory
// system, starting no earlier than start, and returns its completion time.
func (e *Engine) priceAccess(pe int, a access, start uint64) uint64 {
	e.iommu.TranslatePEInto(pe, a.va, a.kind, &e.plan)
	e.stats.Accesses++
	if a.kind == addr.Read {
		e.stats.Reads++
	} else {
		e.stats.Writes++
	}
	transDone := start + e.plan.ProbeCycles
	for _, ref := range e.plan.MemRefs {
		// Page-walk references are dependent: each must complete
		// before the next level can be read.
		transDone = e.mem.Access(ref, transDone)
	}
	if e.plan.Fault {
		e.stats.Faults++
		return transDone
	}
	if e.plan.SquashedPreload {
		// The wrongly predicted preload already consumed bandwidth at
		// the identity address, in parallel with validation.
		e.mem.Access(addr.PA(a.va), start)
	}
	if e.plan.OverlapData {
		// DVM preload: data fetch proceeds in parallel with DAV; the
		// access retires when both are done.
		dataDone := e.mem.Access(e.plan.PA, start)
		if dataDone < transDone {
			return transDone
		}
		return dataDone
	}
	return e.mem.Access(e.plan.PA, transDone)
}

// scatterStream walks a PE's share of the frontier: per vertex a frontier
// read, an edge-index read and a source-property read; per edge an
// edge-tuple read and a read-modify-write of the destination temporary.
type scatterStream struct {
	e      *Engine
	pe     int
	stride int
	vi     int // index into frontier

	st         int // 0 = frontier, 1 = edge index, 2 = src prop, 3 = edges
	src        int32
	srcProp    float64
	eIdx, eEnd uint64
	edgePhase  int // 0 = edge read, 1 = temp read, 2 = temp write
}

func (s *scatterStream) next() (access, bool) {
	e := s.e
	for {
		switch s.st {
		case 0:
			if s.vi >= len(e.frontier) {
				return access{}, false
			}
			s.src = e.frontier[s.vi]
			s.st = 1
			return access{e.lay.FrontierAddr(s.vi), addr.Read}, true
		case 1:
			s.st = 2
			return access{e.lay.EdgeIndexAddr(s.src), addr.Read}, true
		case 2:
			s.srcProp = e.props[s.src]
			s.eIdx = e.g.RowPtr[s.src]
			s.eEnd = e.g.RowPtr[s.src+1]
			s.st = 3
			s.edgePhase = 0
			return access{e.lay.VertexPropAddr(s.src), addr.Read}, true
		case 3:
			if s.eIdx >= s.eEnd {
				s.vi += s.stride
				s.st = 0
				continue
			}
			switch s.edgePhase {
			case 0:
				s.edgePhase = 1
				return access{e.lay.EdgeAddr(s.eIdx), addr.Read}, true
			case 1:
				s.edgePhase = 2
				dst := int32(e.g.Col[s.eIdx])
				return access{e.lay.TempPropAddr(dst), addr.Read}, true
			default:
				dst := int32(e.g.Col[s.eIdx])
				var w float32
				if e.g.Weight != nil {
					w = e.g.Weight[s.eIdx]
				}
				res := e.prog.ProcessEdge(w, s.srcProp)
				e.temps[dst] = e.prog.Reduce(e.temps[dst], res)
				if !e.touchedMark.get(dst) {
					e.touchedMark.set(dst)
					e.touched = append(e.touched, dst)
				}
				e.stats.EdgesProcessed++
				s.eIdx++
				s.edgePhase = 0
				return access{e.lay.TempPropAddr(dst), addr.Write}, true
			}
		}
	}
}

// applyStream folds temporaries into properties for a contiguous chunk of
// vertices: per vertex a temporary read and a property write; activated
// vertices additionally write a frontier slot.
type applyStream struct {
	e         *Engine
	verts     []int32
	collect   bool
	activated *[]int32

	vi  int
	st  int // 0 = temp read, 1 = prop write, 2 = frontier write
	v   int32
	chg bool
}

func (s *applyStream) next() (access, bool) {
	e := s.e
	for {
		switch s.st {
		case 0:
			if s.vi >= len(s.verts) {
				return access{}, false
			}
			s.v = s.verts[s.vi]
			s.st = 1
			return access{e.lay.TempPropAddr(s.v), addr.Read}, true
		case 1:
			newProp, chg := e.prog.Apply(e.props[s.v], e.temps[s.v], int(s.v), e.g)
			e.props[s.v] = newProp
			s.chg = chg
			e.stats.VerticesApplied++
			if chg && s.collect {
				*s.activated = append(*s.activated, s.v)
				s.st = 2
			} else {
				s.vi++
				s.st = 0
			}
			return access{e.lay.VertexPropAddr(s.v), addr.Write}, true
		default:
			idx := len(*s.activated) - 1
			s.vi++
			s.st = 0
			return access{e.lay.FrontierAddr(idx), addr.Write}, true
		}
	}
}

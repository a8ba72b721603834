package accel

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/graph"
)

// This file implements the two-phase engine: per-PE trace generation in
// parallel (phase 1) feeding the sequential timing replay (phase 2).
//
// The split exploits a structural property of the Graphicionado streams:
// within one scatter or apply phase, every address a PE will issue — and
// every value its functional work needs — is a pure function of the
// graph, the layout and the phase-start snapshot (frontier, props,
// temps). The per-PE access sequences can therefore be generated
// concurrently, ahead of the replay, with no locks. What is *not* a pure
// per-PE function is the globally *interleaved* order of the functional
// side effects (floating-point Reduce into shared temporaries, the
// first-touch order of the `touched` list): that order is defined by the
// timing model's issue schedule. So side effects that cross PEs travel
// *in* the trace — a scatter temp-write entry carries its destination
// and its ProcessEdge result — and are applied by the replay thread at
// the exact point the direct engine would have applied them: when the
// entry is fetched into a PE's pending slot. Phase 2 then runs the
// identical (ready-time, PE-index) min-heap loop over the pregenerated
// entries, so the issue schedule, every counter, every cycle count and
// every rendered artifact are byte-identical to the direct engine
// (enforced by the replay-vs-direct equivalence tests and golden_test.go).
//
// Apply-phase side effects, by contrast, are PE-private (each PE owns a
// disjoint vertex chunk, its props writes and its activation list), so
// the generators perform them at generation time; only the
// VerticesApplied counter is deferred to fetch, keeping the replay
// thread the sole writer of RunStats.
//
// Worker provisioning is budget-gated: each phase borrows up to PEs
// tokens from the engine's shared runner.Budget (the same pool the
// cell-level -j workers draw from) and PEs that get no token simply run
// the direct streams inline — both stream kinds apply their side effects
// at fetch time, so any mix of direct and pregenerated PEs is exact.

// traceChunkEntries is the size of one pregenerated trace chunk. Chunks
// are double-buffered per PE (chunkBuffers), so a phase's trace memory is
// bounded at PEs * chunkBuffers * traceChunkEntries entries regardless of
// graph size — the medium and paper profiles stream, they do not
// materialize whole phases.
const traceChunkEntries = 1 << 14

// chunkBuffers is the number of chunks in flight per PE: one being
// consumed by the replay, one being filled by the generator.
const chunkBuffers = 2

// asyncMinPerPE is the minimum estimated entries per PE before a phase
// borrows workers: below it, goroutine startup would cost more than the
// generation it offloads (BFS tails, tiny frontiers). A variable so the
// equivalence tests can force the async path on deliberately tiny phases.
var asyncMinPerPE = 4096

// traceOp tags the deferred side effect of a trace entry.
type traceOp uint8

const (
	// opNone: the entry is a pure timed access.
	opNone traceOp = iota
	// opReduce: scatter temp-write; fold val into temps[dst] and record
	// first touch, exactly as the direct scatterStream does at fetch.
	opReduce
	// opApply: apply prop-write of an unchanged vertex; count one applied
	// vertex. The entry carries (dst, new property) so a shared-trace
	// consumer (sharedtrace.go) can install the result into its private
	// props at fetch; the engine's own traceStream only counts.
	opApply
	// opApplyChg: opApply for a vertex Apply reported as changed. The
	// distinction lets a shared-trace consumer grow its own activation
	// list at the exact fetch points the direct applyStream would.
	opApplyChg
)

// traceEntry is one pregenerated access plus its deferred side effect.
type traceEntry struct {
	va   addr.VA
	val  float64
	dst  int32
	kind addr.AccessKind
	op   traceOp
}

// traceGen is a resumable per-PE trace generator. fill writes up to
// len(buf) entries and reports how many, plus whether the PE's phase
// stream is exhausted.
type traceGen interface {
	fill(buf []traceEntry) (n int, done bool)
}

// genState is the phase-start snapshot a trace generator reads: the
// graph, program and layout plus the functional arrays (props, temps,
// frontier). An Engine embeds one aliasing its own arrays (refreshing
// the frontier slice each iteration, since the frontier ping-pongs);
// a ShareGroup owns a private one it evolves canonically. Keeping the
// generators off *Engine is what lets one functional pass feed many
// timing replays (sharedtrace.go).
type genState struct {
	g    *graph.Graph
	prog Program
	lay  Layout

	props    []float64
	temps    []float64
	frontier []int32
}

// scatterGen generates one PE's scatter-phase trace: the same state
// machine as scatterStream, but emitting entries instead of touching
// shared engine state. The temp-write entries carry (dst, ProcessEdge
// result) so the replay can reduce in issue-schedule order.
type scatterGen struct {
	e      *genState
	stride int
	vi     int

	st         int
	src        int32
	srcProp    float64
	eIdx, eEnd uint64
	edgePhase  int
}

func (g *scatterGen) fill(buf []traceEntry) (int, bool) {
	e := g.e
	n := 0
	for n < len(buf) {
		switch g.st {
		case 0:
			if g.vi >= len(e.frontier) {
				return n, true
			}
			g.src = e.frontier[g.vi]
			g.st = 1
			buf[n] = traceEntry{va: e.lay.FrontierAddr(g.vi), kind: addr.Read}
			n++
		case 1:
			g.st = 2
			buf[n] = traceEntry{va: e.lay.EdgeIndexAddr(g.src), kind: addr.Read}
			n++
		case 2:
			g.srcProp = e.props[g.src]
			g.eIdx = e.g.RowPtr[g.src]
			g.eEnd = e.g.RowPtr[g.src+1]
			g.st = 3
			g.edgePhase = 0
			buf[n] = traceEntry{va: e.lay.VertexPropAddr(g.src), kind: addr.Read}
			n++
		case 3:
			if g.eIdx >= g.eEnd {
				g.vi += g.stride
				g.st = 0
				continue
			}
			switch g.edgePhase {
			case 0:
				g.edgePhase = 1
				buf[n] = traceEntry{va: e.lay.EdgeAddr(g.eIdx), kind: addr.Read}
				n++
			case 1:
				g.edgePhase = 2
				dst := int32(e.g.Col[g.eIdx])
				buf[n] = traceEntry{va: e.lay.TempPropAddr(dst), kind: addr.Read}
				n++
			default:
				dst := int32(e.g.Col[g.eIdx])
				var w float32
				if e.g.Weight != nil {
					w = e.g.Weight[g.eIdx]
				}
				buf[n] = traceEntry{
					va: e.lay.TempPropAddr(dst), kind: addr.Write,
					op: opReduce, dst: dst,
					val: e.prog.ProcessEdge(w, g.srcProp),
				}
				n++
				g.eIdx++
				g.edgePhase = 0
			}
		}
	}
	return n, false
}

// applyGen generates one PE's apply-phase trace. Its side effects are
// PE-private (props of its own chunk, its own activation list), so they
// run at generation time; the emitted prop-write entries carry opApply so
// the replay thread counts VerticesApplied at the same fetch points as
// the direct applyStream.
type applyGen struct {
	e         *genState
	verts     []int32
	collect   bool
	activated *[]int32

	vi int
	st int
	v  int32
}

func (g *applyGen) fill(buf []traceEntry) (int, bool) {
	e := g.e
	n := 0
	for n < len(buf) {
		switch g.st {
		case 0:
			if g.vi >= len(g.verts) {
				return n, true
			}
			g.v = g.verts[g.vi]
			g.st = 1
			buf[n] = traceEntry{va: e.lay.TempPropAddr(g.v), kind: addr.Read}
			n++
		case 1:
			newProp, chg := e.prog.Apply(e.props[g.v], e.temps[g.v], int(g.v), e.g)
			e.props[g.v] = newProp
			op := opApply
			if chg {
				op = opApplyChg
			}
			if chg && g.collect {
				*g.activated = append(*g.activated, g.v)
				g.st = 2
			} else {
				g.vi++
				g.st = 0
			}
			// The entry carries the Apply result so shared-trace
			// consumers can install it into their own props at fetch.
			buf[n] = traceEntry{va: e.lay.VertexPropAddr(g.v), kind: addr.Write, op: op, dst: g.v, val: newProp}
			n++
		default:
			idx := len(*g.activated) - 1
			g.vi++
			g.st = 0
			buf[n] = traceEntry{va: e.lay.FrontierAddr(idx), kind: addr.Write}
			n++
		}
	}
	return n, false
}

// traceStream adapts a PE's chunk channel to the scheduler's stream
// interface. next() applies the entry's deferred side effect — on the
// replay goroutine, at fetch time — and hands the access to the heap
// loop, so the global side-effect order matches the direct engine's
// next() call order exactly.
type traceStream struct {
	e    *Engine
	cur  []traceEntry
	i    int
	ch   chan []traceEntry
	free chan []traceEntry
}

func (s *traceStream) next() (access, bool) {
	for s.i >= len(s.cur) {
		if s.cur != nil {
			// Recycle the drained chunk. Never blocks: only
			// chunkBuffers buffers circulate and we hold one.
			s.free <- s.cur
			s.cur = nil
		}
		c, ok := <-s.ch
		if !ok {
			return access{}, false
		}
		s.cur, s.i = c, 0
	}
	t := &s.cur[s.i]
	s.i++
	e := s.e
	switch t.op {
	case opReduce:
		d := t.dst
		e.temps[d] = e.prog.Reduce(e.temps[d], t.val)
		if !e.touchedMark.get(d) {
			e.touchedMark.set(d)
			e.touched = append(e.touched, d)
		}
		e.stats.EdgesProcessed++
	case opApply, opApplyChg:
		e.stats.VerticesApplied++
	}
	return access{va: t.va, kind: t.kind}, true
}

// takeChunk pops a pooled chunk buffer (or grows the pool).
func (e *Engine) takeChunk() []traceEntry {
	if n := len(e.chunkFree); n > 0 {
		c := e.chunkFree[n-1]
		e.chunkFree[n-1] = nil
		e.chunkFree = e.chunkFree[:n-1]
		return c
	}
	return make([]traceEntry, traceChunkEntries)
}

// startProducer wires PE stream s to gen: a producer goroutine fills
// pooled chunks ahead of the replay, double-buffered through the free
// list. The producer owns one budget token and returns it the moment its
// generation completes, so tail-phase tokens migrate to other runs.
// label is the producer's precomputed span name (asyncWorkers builds the
// per-PE labels once, so the phase hot path never formats strings).
func (e *Engine) startProducer(s *traceStream, gen traceGen, label string) stream {
	ch := make(chan []traceEntry, 1)
	free := make(chan []traceEntry, chunkBuffers)
	for i := 0; i < chunkBuffers; i++ {
		free <- e.takeChunk()
	}
	*s = traceStream{e: e, ch: ch, free: free}
	go func() {
		sp := e.spans.Begin(label)
		for {
			buf := <-free
			n, done := gen.fill(buf[:cap(buf)])
			if n > 0 {
				ch <- buf[:n]
			}
			if done {
				if n == 0 {
					free <- buf
				}
				sp.End()
				// The token goes back before close(ch) ends the stream,
				// so a run that has drained every stream has its whole
				// budget back.
				e.workers.Release(1)
				close(ch)
				return
			}
		}
	}()
	return s
}

// reclaimChunks returns the first async streams' chunk buffers to the
// engine pool after a phase. By the time runStreams has drained a
// traceStream, its producer has exited and every buffer has been
// recycled into the free channel.
func (e *Engine) reclaimChunks(async int) {
	for pe := 0; pe < async; pe++ {
		s := &e.tstreams[pe]
		for {
			select {
			case b := <-s.free:
				e.chunkFree = append(e.chunkFree, b[:cap(b)])
				continue
			default:
			}
			break
		}
		s.ch, s.free, s.cur, s.e = nil, nil, nil, nil
	}
}

// asyncWorkers decides how many PEs of the coming phase generate their
// traces on borrowed workers. Phases too small to amortize goroutine
// startup, and engines without a worker budget (or with -j 1), take zero
// and run every PE through the direct streams — bit-identical either way.
func (e *Engine) asyncWorkers(estEntries int) int {
	if e.workers == nil || estEntries < e.cfg.PEs*asyncMinPerPE {
		return 0
	}
	n := e.workers.TryAcquire(e.cfg.PEs)
	if n > 0 && cap(e.tstreams) < e.cfg.PEs {
		e.tstreams = make([]traceStream, e.cfg.PEs)
		e.genScatterBuf = make([]scatterGen, e.cfg.PEs)
		e.genApplyBuf = make([]applyGen, e.cfg.PEs)
		e.genLabels = make([]string, e.cfg.PEs)
		for pe := range e.genLabels {
			e.genLabels[pe] = fmt.Sprintf("tracegen:pe%d", pe)
		}
	}
	return n
}

// scatterEstimate approximates the coming scatter phase's entry count:
// three frontier-vertex entries plus three entries per edge, using the
// mean degree (exact degree sums would cost a frontier walk).
func (e *Engine) scatterEstimate() int {
	if e.g.V == 0 {
		return 0
	}
	return len(e.frontier) * (3 + 3*e.g.E()/e.g.V)
}

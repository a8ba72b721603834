package accel

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
)

// buildShareGroup makes a hub matching engines built by buildEngineTLB
// (same deterministic layout: the OS model is seeded identically).
func buildShareGroup(t *testing.T, g *graph.Graph, prog Program, lay Layout, opt ShareOptions) *ShareGroup {
	t.Helper()
	h, err := NewShareGroup(Config{}, g, prog, lay, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// shareModes is the cross-mode matrix for the accel-level equivalence
// tests: the paper set (buildEngineTLB wires these directly). The
// registered extras (SPARTA, VBI) need backend-built state and are
// covered by the core-level grouped-vs-independent tests.
func shareModes() []mmu.Mode { return mmu.AllModes }

// TestSharedReplayMatchesDirect is the core property of replay groups:
// for every program and every registered mode, an engine consuming the
// group's canonical trace must produce bit-identical stats, props and
// full metrics snapshots to an engine running alone — whether it stays
// attached to the end (PageRank) or detaches mid-run (the frontier
// programs, once timing reorders a first touch).
func TestSharedReplayMatchesDirect(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	bip, err := graph.GenerateBipartite(graph.BipartiteConfig{
		Users: 300, Items: 40, Edges: 4000, Skew: graph.DefaultRMAT(10, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// exact marks programs whose reduction is order-independent at the
	// bit level (floating min): their props must match the direct run
	// bit-for-bit. Sum-reduce programs (PageRank, CF) inherit the
	// canonical fold order's low-order float bits while attached — the
	// differences are invisible in stats, cycles and metrics (addresses
	// and counters are value-independent) but show up in a raw bit
	// compare, so those props are checked within a tight tolerance.
	progs := []struct {
		name  string
		g     *graph.Graph
		p     Program
		exact bool
	}{
		{"bfs", g, BFS(0), true},
		{"sssp", g, SSSP(0), true},
		{"pagerank", g, PageRank(3), false},
		{"cf", bip, CF(2), false},
	}
	modes := shareModes()
	for _, pr := range progs {
		type ref struct {
			stats RunStats
			props []float64
			snap  obs.Snapshot
		}
		want := make([]ref, len(modes))
		for i, m := range modes {
			e := buildEngineTLB(t, m, pr.g, pr.p, 16)
			s, p, snap := runWithMetrics(t, e)
			want[i] = ref{s, p, snap}
		}
		engines := make([]*Engine, len(modes))
		for i, m := range modes {
			engines[i] = buildEngineTLB(t, m, pr.g, pr.p, 16)
		}
		h := buildShareGroup(t, pr.g, pr.p, engines[0].lay, ShareOptions{})
		for _, e := range engines {
			c, err := h.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			e.SetShare(c)
		}
		for i, e := range engines {
			s, p, snap := runWithMetrics(t, e)
			if s != want[i].stats {
				t.Errorf("%s %v: stats diverge\ndirect %+v\nshared %+v", pr.name, modes[i], want[i].stats, s)
			}
			if pr.exact {
				if !reflect.DeepEqual(p, want[i].props) {
					t.Errorf("%s %v: props diverge", pr.name, modes[i])
				}
			} else if !propsClose(p, want[i].props) {
				t.Errorf("%s %v: props beyond fold-order tolerance", pr.name, modes[i])
			}
			if !reflect.DeepEqual(snap, want[i].snap) {
				t.Errorf("%s %v: metrics snapshots diverge\ndirect %v\nshared %v", pr.name, modes[i], want[i].snap, snap)
			}
		}
		if live := h.LiveChunks(); live != 0 {
			t.Errorf("%s: %d chunks still live after all consumers finished", pr.name, live)
		}
		st := h.Stats()
		if st.Subscribed != len(modes) {
			t.Errorf("%s: Subscribed = %d, want %d", pr.name, st.Subscribed, len(modes))
		}
		if st.GeneratedEntries == 0 || st.SharedEntries == 0 {
			t.Errorf("%s: no sharing recorded: %+v", pr.name, st)
		}
		if pr.name == "pagerank" {
			// All-active, non-bipartite: the apply list never depends on
			// touch order, so no consumer ever detaches and every mode
			// fetches the full canonical trace.
			if st.Detached != 0 {
				t.Errorf("pagerank: %d consumers detached, want 0", st.Detached)
			}
			if st.SharedEntries != st.GeneratedEntries*uint64(len(modes)) {
				t.Errorf("pagerank: shared %d entries, want %d×%d", st.SharedEntries, st.GeneratedEntries, len(modes))
			}
		}
		h.Close()
	}
}

// propsClose compares sum-reduce props within the fold-order tolerance:
// the values are the same mathematical sums in different association
// orders, so they agree to near machine precision.
func propsClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		m := b[i]
		if m < 0 {
			m = -m
		}
		if d > 1e-9*(1+m) {
			return false
		}
	}
	return true
}

// TestSharedReplayLockstep drives every consumer one phase at a time on
// a single goroutine — the inline schedule core uses when no worker
// tokens are available (-j 1). Chunk lifetimes interleave maximally, and
// results must still match independent runs.
func TestSharedReplayLockstep(t *testing.T) {
	g := testGraph(t)
	for _, pr := range []struct {
		name  string
		p     Program
		exact bool
	}{{"bfs", BFS(0), true}, {"pagerank", PageRank(3), false}} {
		modes := shareModes()
		want := make([]RunStats, len(modes))
		wantProps := make([][]float64, len(modes))
		for i, m := range modes {
			e := buildEngineTLB(t, m, g, pr.p, 16)
			s, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = s
			wantProps[i] = append([]float64(nil), e.Props()...)
		}
		engines := make([]*Engine, len(modes))
		for i, m := range modes {
			engines[i] = buildEngineTLB(t, m, g, pr.p, 16)
		}
		h := buildShareGroup(t, g, pr.p, engines[0].lay, ShareOptions{})
		for _, e := range engines {
			c, err := h.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			e.SetShare(c)
		}
		for {
			advanced := false
			for _, e := range engines {
				if e.Step() {
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}
		for i, e := range engines {
			s, err := e.Run() // already done: returns the sealed stats
			if err != nil {
				t.Fatal(err)
			}
			if s != want[i] {
				t.Errorf("%s %v: lockstep stats diverge\nwant %+v\ngot  %+v", pr.name, modes[i], want[i], s)
			}
			if pr.exact {
				if !reflect.DeepEqual(wantProps[i], e.Props()) {
					t.Errorf("%s %v: lockstep props diverge", pr.name, modes[i])
				}
			} else if !propsClose(e.Props(), wantProps[i]) {
				t.Errorf("%s %v: lockstep props beyond fold-order tolerance", pr.name, modes[i])
			}
		}
		if live := h.LiveChunks(); live != 0 {
			t.Errorf("%s: %d chunks live after lockstep group", pr.name, live)
		}
	}
}

// TestSharedReplayConcurrent runs one consumer goroutine per mode off a
// single hub, so the race detector sees the pull-through generation path
// under contention. Results must match independent runs.
func TestSharedReplayConcurrent(t *testing.T) {
	g := testGraph(t)
	prog := PageRank(3)
	modes := shareModes()
	want := make([]RunStats, len(modes))
	for i, m := range modes {
		e := buildEngineTLB(t, m, g, prog, 16)
		s, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	engines := make([]*Engine, len(modes))
	h := buildShareGroup(t, g, prog, buildEngineTLB(t, modes[0], g, prog, 16).lay, ShareOptions{})
	for i, m := range modes {
		engines[i] = buildEngineTLB(t, m, g, prog, 16)
		c, err := h.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		engines[i].SetShare(c)
	}
	var wg sync.WaitGroup
	errs := make([]string, len(modes))
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := engines[i].Run()
			switch {
			case err != nil:
				errs[i] = err.Error()
			case s != want[i]:
				errs[i] = "stats diverge"
			}
		}(i)
	}
	wg.Wait()
	for i, msg := range errs {
		if msg != "" {
			t.Errorf("%v: %s", modes[i], msg)
		}
	}
	if live := h.LiveChunks(); live != 0 {
		t.Errorf("%d chunks live after concurrent group", live)
	}
}

// TestSharedReplaySpill forces the pathological window — one in-memory
// chunk — so essentially the whole canonical trace round-trips through
// the spill file. Equivalence must be unaffected.
func TestSharedReplaySpill(t *testing.T) {
	g := testGraph(t)
	for _, pr := range []struct {
		name string
		p    Program
	}{{"bfs", BFS(0)}, {"pagerank", PageRank(2)}} {
		modes := []mmu.Mode{mmu.ModeIdeal, mmu.ModeConv4K, mmu.ModeDVMPE}
		want := make([]RunStats, len(modes))
		for i, m := range modes {
			e := buildEngineTLB(t, m, g, pr.p, 16)
			s, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = s
		}
		engines := make([]*Engine, len(modes))
		for i, m := range modes {
			engines[i] = buildEngineTLB(t, m, g, pr.p, 16)
		}
		h := buildShareGroup(t, g, pr.p, engines[0].lay, ShareOptions{Window: 1, SpillDir: t.TempDir()})
		for _, e := range engines {
			c, err := h.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			e.SetShare(c)
		}
		for i, e := range engines {
			s, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if s != want[i] {
				t.Errorf("%s %v: spilled stats diverge\nwant %+v\ngot  %+v", pr.name, modes[i], want[i], s)
			}
		}
		st := h.Stats()
		if st.SpilledChunks == 0 {
			t.Errorf("%s: window 1 spilled nothing (chunks %d)", pr.name, st.Chunks)
		}
		if live := h.LiveChunks(); live != 0 {
			t.Errorf("%s: %d chunks live after spilled group", pr.name, live)
		}
		h.Close()
	}
}

// TestSharedReplayNoSpill checks the advisory-window mode: nothing
// spills, the high-water mark records the overshoot, equivalence holds.
func TestSharedReplayNoSpill(t *testing.T) {
	g := testGraph(t)
	prog := PageRank(2)
	e1 := buildEngineTLB(t, mmu.ModeIdeal, g, prog, 16)
	want, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	e := buildEngineTLB(t, mmu.ModeIdeal, g, prog, 16)
	h := buildShareGroup(t, g, prog, e.lay, ShareOptions{Window: 1, NoSpill: true})
	c, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	e.SetShare(c)
	got, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("no-spill stats diverge: %+v vs %+v", want, got)
	}
	st := h.Stats()
	if st.SpilledChunks != 0 {
		t.Errorf("NoSpill spilled %d chunks", st.SpilledChunks)
	}
	if st.HighWater <= 1 {
		t.Errorf("high-water %d never exceeded the advisory window", st.HighWater)
	}
}

// TestSharedReplayAbandon pins the chunk-leak property when a consumer
// never runs: its cursor holds a reference on every published chunk, and
// detaching must return them all.
func TestSharedReplayAbandon(t *testing.T) {
	g := testGraph(t)
	prog := PageRank(2)
	eA := buildEngineTLB(t, mmu.ModeIdeal, g, prog, 16)
	eB := buildEngineTLB(t, mmu.ModeConv4K, g, prog, 16)
	h := buildShareGroup(t, g, prog, eA.lay, ShareOptions{NoSpill: true})
	cA, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	cB, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	eA.SetShare(cA)
	eB.SetShare(cB)
	if _, err := eA.Run(); err != nil {
		t.Fatal(err)
	}
	if live := h.LiveChunks(); live == 0 {
		t.Fatalf("abandoned cursor pins no chunks — test is vacuous")
	}
	cB.detach()
	if live := h.LiveChunks(); live != 0 {
		t.Errorf("%d chunks live after abandoning second consumer", live)
	}
	if h.Stats().Detached != 1 {
		t.Errorf("Detached = %d, want 1", h.Stats().Detached)
	}
}

// TestSharedReplayFail checks failure propagation: a poisoned group
// aborts every attached consumer's run with the failure, and no chunks
// leak afterwards.
func TestSharedReplayFail(t *testing.T) {
	g := testGraph(t)
	prog := PageRank(3)
	eA := buildEngineTLB(t, mmu.ModeIdeal, g, prog, 16)
	eB := buildEngineTLB(t, mmu.ModeConv4K, g, prog, 16)
	h := buildShareGroup(t, g, prog, eA.lay, ShareOptions{})
	cA, _ := h.Subscribe()
	cB, _ := h.Subscribe()
	eA.SetShare(cA)
	eB.SetShare(cB)
	if !eA.Step() {
		t.Fatal("first step refused")
	}
	boom := errors.New("sibling failed")
	h.Fail(boom)
	if _, err := eA.Run(); !errors.Is(err, boom) {
		t.Errorf("engine A error = %v, want %v", err, boom)
	}
	if _, err := eB.Run(); !errors.Is(err, boom) {
		t.Errorf("engine B error = %v, want %v", err, boom)
	}
	if live := h.LiveChunks(); live != 0 {
		t.Errorf("%d chunks live after failed group", live)
	}
}

// TestSharedReplaySubscribeLate pins the construction rule: cursors must
// all exist before the first chunk is generated.
func TestSharedReplaySubscribeLate(t *testing.T) {
	g := testGraph(t)
	prog := PageRank(2)
	e := buildEngineTLB(t, mmu.ModeIdeal, g, prog, 16)
	h := buildShareGroup(t, g, prog, e.lay, ShareOptions{})
	c, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	e.SetShare(c)
	if !e.Step() {
		t.Fatal("first step refused")
	}
	if _, err := h.Subscribe(); err == nil {
		t.Error("Subscribe after generation started should fail")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSingleReadyDrain runs a whole PageRank on one PE, where the
// scheduler heap holds a single key: it prices runStreams' issue loop
// when there is no ordering work at all (BenchmarkRunStreams has eight
// PEs contending).
func BenchmarkSingleReadyDrain(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(11, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := buildEngineCfg(b, mmu.ModeIdeal, g, PageRank(3), 128, Config{PEs: 1})
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

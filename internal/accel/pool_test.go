package accel

import (
	"math"
	"reflect"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/obs"
)

// drain empties every class of p.
func (p *slicePool[T]) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.classes {
		p.classes[c] = nil
	}
}

func drainPools() {
	poolF64.drain()
	poolI32.drain()
	poolU64.drain()
}

// poisonPools fills classes 0..maxClass of every pool to retention with
// sentinel garbage: NaN properties, in-range vertex ids (so a list read
// before it is written silently misroutes instead of panicking) and
// all-ones bitset words (every vertex already marked touched).
func poisonPools(maxClass int, v int) {
	drainPools()
	for c := 0; c <= maxClass; c++ {
		for i := 0; i < poolPerClass; i++ {
			f := make([]float64, 1<<c)
			for j := range f {
				f[j] = math.NaN()
			}
			poolF64.put(f)
			s := make([]int32, 1<<c)
			for j := range s {
				s[j] = int32((j*7 + i) % v)
			}
			poolI32.put(s)
			u := make([]uint64, 1<<c)
			for j := range u {
				u[j] = ^uint64(0)
			}
			poolU64.put(u)
		}
	}
}

// poolRun is everything a run reports: its statistics (cycles
// included), the engine's, IOMMU's and memory system's metrics, and the
// functional result.
type poolRun struct {
	stats   RunStats
	metrics obs.Snapshot
	props   []float64
}

func runForPoolTest(t *testing.T, mode mmu.Mode, g *graph.Graph, prog Program, cfg Config) poolRun {
	t.Helper()
	e := buildEngineCfg(t, mode, g, prog, 16, cfg)
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg, "accel")
	e.iommu.RegisterMetrics(reg)
	e.mem.RegisterMetrics(reg, "memsys")
	stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := poolRun{stats: stats, metrics: reg.Snapshot(), props: append([]float64(nil), e.Props()...)}
	e.Release()
	if e.Props() != nil {
		t.Fatal("Props() after Release is not nil")
	}
	return r
}

// TestPoolPoisonLeavesResultsUnchanged pins the pool contract that
// contents are undefined at get: a run whose every buffer comes from
// pools pre-loaded with garbage reports exactly what the same run
// reports when every buffer is freshly allocated. It covers a
// frontier-driven program (next frontier, activation arena; three PEs
// so the arena's segments do not divide V), an all-active one (the
// all-vertices apply list) and a bipartite one (all-active, applying
// the touched list).
//
// Not parallel: the pools are package state.
func TestPoolPoisonLeavesResultsUnchanged(t *testing.T) {
	g := testGraph(t)
	bip, err := graph.GenerateBipartite(graph.BipartiteConfig{Users: 600, Items: 50, Edges: 5000, Skew: graph.DefaultRMAT(10, 9)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mode mmu.Mode
		g    *graph.Graph
		prog Program
		cfg  Config
	}{
		{"BFS/3PE", mmu.ModeDVMPE, g, BFS(0), Config{PEs: 3}},
		{"SSSP", mmu.ModeConv4K, g, SSSP(0), Config{}},
		{"PageRank", mmu.ModeDVMBM, g, PageRank(3), Config{}},
		{"CF", mmu.ModeIdeal, bip, CF(2), Config{}},
	}
	defer drainPools()
	for _, c := range cases {
		drainPools()
		want := runForPoolTest(t, c.mode, c.g, c.prog, c.cfg)
		poisonPools(poolClass(2*c.g.V), c.g.V)
		got := runForPoolTest(t, c.mode, c.g, c.prog, c.cfg)
		if got.stats != want.stats {
			t.Errorf("%s: stats from poisoned pools %+v, from empty pools %+v", c.name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.metrics, want.metrics) {
			t.Errorf("%s: metrics from poisoned pools differ from empty pools", c.name)
		}
		if !reflect.DeepEqual(got.props, want.props) {
			t.Errorf("%s: properties from poisoned pools differ from empty pools", c.name)
		}
	}
}

package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/runner"
)

// zeroWall clears RunResult.Wall — the one documented nondeterministic
// field — so determinism tests can DeepEqual everything else.
func zeroWall(rs map[Mode]RunResult) {
	for m, r := range rs {
		r.Wall = 0
		rs[m] = r
	}
}

// determinismWorkloads spans both graph shapes (general and bipartite)
// and both reduce families (min: BFS/SSSP, exact float bits; sum:
// PageRank/CF, fold order) across a few seeds.
func determinismWorkloads(t *testing.T) []Workload {
	t.Helper()
	fr, err := graph.DatasetByName("FR")
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := graph.DatasetByName("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	nf, err := graph.DatasetByName("NF")
	if err != nil {
		t.Fatal(err)
	}
	return []Workload{
		{Algorithm: "BFS", Dataset: fr, Scale: ProfileTiny.Scale, Seed: 1},
		{Algorithm: "SSSP", Dataset: wiki, Scale: ProfileTiny.Scale, Seed: 7},
		{Algorithm: "PageRank", Dataset: wiki, Scale: ProfileTiny.Scale, PageRankIters: 2, Seed: 42},
		{Algorithm: "CF", Dataset: nf, Scale: ProfileTiny.Scale, Seed: 3},
	}
}

// TestFigure8ParallelismIsDeterministic runs each algorithm family's
// Figure 8 cell over every registered mode (the paper's seven plus
// SPARTA and VBI) with a sequential sweep (-j 1) and a saturated pool
// (-j 8, holding a -j 8 worker budget as the commands do) and requires
// every per-mode RunResult — cycles, miss rates, energy, DRAM stats,
// metrics — to be identical. Parallelism must change wall-clock time
// only, never results.
func TestFigure8ParallelismIsDeterministic(t *testing.T) {
	ctx := context.Background()
	modes := RegisteredModes()
	for _, w := range determinismWorkloads(t) {
		t.Run(w.Algorithm+"/"+w.Dataset.Name, func(t *testing.T) {
			p, err := Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ProfileTiny.SystemConfig()
			seq, err := Figure8ModesCtx(ctx, p, modes, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = runner.BudgetFor(8)
			par, err := Figure8ModesCtx(ctx, p, modes, cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			zeroWall(seq.Results)
			zeroWall(par.Results)
			for _, m := range modes {
				if !reflect.DeepEqual(seq.Results[m], par.Results[m]) {
					t.Errorf("mode %v: RunResult differs between -j 1 and -j 8:\nseq: %+v\npar: %+v",
						m, seq.Results[m], par.Results[m])
				}
			}
			if !reflect.DeepEqual(seq.Cycles, par.Cycles) || !reflect.DeepEqual(seq.Normalized, par.Normalized) {
				t.Error("derived Figure 8 cell differs between -j 1 and -j 8")
			}
		})
	}
}

// TestSharedSweepMatchesIndependent runs each algorithm family's Figure 8
// sweep over every registered mode on a saturated pool (-j 8, holding a
// -j 8 worker budget) and requires every per-mode RunResult to be
// identical to running that mode on its own with Prepared.Run. The
// sweep's cells share one Prepared (graph, program, layout) and run
// concurrently; that sharing must change wall-clock time only, never
// results. TestFigure8ParallelismIsDeterministic ties -j 1 to -j 8.
func TestSharedSweepMatchesIndependent(t *testing.T) {
	ctx := context.Background()
	modes := RegisteredModes()
	for _, w := range determinismWorkloads(t) {
		t.Run(w.Algorithm+"/"+w.Dataset.Name, func(t *testing.T) {
			p, err := Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ProfileTiny.SystemConfig()
			indep := make(map[Mode]RunResult, len(modes))
			for _, m := range modes {
				r, err := p.Run(m, cfg)
				if err != nil {
					t.Fatalf("mode %v: %v", m, err)
				}
				indep[m] = r
			}
			zeroWall(indep)
			for _, jobs := range []int{8} {
				c := cfg
				c.Workers = runner.BudgetFor(jobs)
				cell, err := Figure8ModesCtx(ctx, p, modes, c, jobs)
				if err != nil {
					t.Fatalf("-j %d: %v", jobs, err)
				}
				zeroWall(cell.Results)
				for _, m := range modes {
					if !reflect.DeepEqual(indep[m], cell.Results[m]) {
						t.Errorf("-j %d: mode %v: sweep result differs from independent run:\nwant: %+v\ngot:  %+v",
							jobs, m, indep[m], cell.Results[m])
					}
				}
			}
		})
	}
}

func TestRunModesCtxMatchesRunAll(t *testing.T) {
	fr, err := graph.DatasetByName("FR")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(Workload{Algorithm: "BFS", Dataset: fr, Scale: ProfileTiny.Scale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProfileTiny.SystemConfig()
	seq, err := p.RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.RunModesCtx(context.Background(), AllModes, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	zeroWall(seq)
	zeroWall(par)
	if !reflect.DeepEqual(seq, par) {
		t.Error("RunModesCtx(jobs=4) differs from sequential RunAll")
	}
}

package main

import (
	"fmt"
	"time"

	"github.com/dvm-sim/dvm/internal/results"
	"github.com/dvm-sim/dvm/internal/shbench"
)

// allocTable4 is Table 4's nine shbench cells (experiments 1-3 x 16/32/
// 64 GB), run one at a time: the OS model's write path (pooled malloc,
// the identity Mmap path, the buddy allocator) does all the work. It
// has no set-up phase.
type allocTable4 struct {
	env runEnv
}

func newAllocTable4(env runEnv) bench { return &allocTable4{env: env} }

func (a *allocTable4) setup() error { return nil }
func (a *allocTable4) close()       {}

func (a *allocTable4) measure(tr *tracer) pass {
	var p pass
	root := tr.begin("alloc-table4", "bench", -1, 0)
	pct := map[[2]uint64]float64{}
	runS := map[int]float64{}
	allocs := map[int]float64{}
	for _, exp := range shbench.Experiments {
		// The seed shifts each experiment's own seed; 42 leaves Table 4's.
		exp.Seed += a.env.seed - 42
		for _, mem := range shbench.MemorySizes {
			p.attempted++
			sp := tr.begin(fmt.Sprintf("shbench/e%d/%dG", exp.ID, mem>>30), "osmodel", root, 1)
			t := time.Now()
			r, err := shbench.Run(exp, mem)
			d := time.Since(t).Seconds()
			tr.end(sp)
			p.jobs = append(p.jobs, d)
			if err != nil {
				p.fail("shbench expt %d %s: %v", exp.ID, results.Bytes(mem), err)
				continue
			}
			runS[exp.ID] += d
			allocs[exp.ID] += float64(r.Allocations)
			p.work += float64(r.Allocations)
			pct[[2]uint64{uint64(exp.ID), mem}] = r.Percent
		}
	}
	tr.end(root)
	p.counts = []count{{"shbench.allocations", fmt.Sprint(uint64(p.work))}}
	t := results.NewTable("Table 4: % of system memory allocated with identity mapping intact (paper: 95-97%)",
		"System Memory", "Expt 1", "Expt 2", "Expt 3")
	for _, mem := range shbench.MemorySizes {
		row := []string{results.Bytes(mem)}
		for id := uint64(1); id <= 3; id++ {
			row = append(row, fmt.Sprintf("%.1f%%", pct[[2]uint64{id, mem}]))
		}
		t.MustAddRow(row...)
	}
	if a.env.seed == 42 && p.failed == 0 {
		want, err := a.env.golden.section(titleTable4)
		if err != nil {
			p.fail("%v", err)
		} else if bad := diffLines(t.String(), want); len(bad) > 0 {
			// Rows are memory sizes and columns experiments; a differing
			// row fails its three cells.
			p.failed = min(p.attempted, 3*len(bad))
			p.problems = append(p.problems, fmt.Sprintf("Table 4 differs from the expected output on lines %v", bad))
		}
	}
	if tr != nil {
		for _, exp := range shbench.Experiments {
			p.layers = append(p.layers, metric{fmt.Sprintf("shbench.run_s.e%d", exp.ID), "s", runS[exp.ID]})
			if allocs[exp.ID] > 0 {
				p.layers = append(p.layers, metric{fmt.Sprintf("osmodel.ns_per_alloc.e%d", exp.ID), "ns", runS[exp.ID] / allocs[exp.ID] * 1e9})
			}
		}
	}
	return p
}

package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/results"
	"github.com/dvm-sim/dvm/internal/runner"
)

// simFig8 is the tiny-profile Figure 8/9 matrix: 15 workloads x the
// seven paper modes = 105 Prepared.Run calls through one worker. Set-up
// is core.Prepare (graph generation) of the 15 workloads; the lazy
// osmodel layout and page-table builds stay in the measured phase,
// because every command-line run pays for them.
type simFig8 struct {
	env  runEnv
	prep []*core.Prepared
}

func newSimFig8(env runEnv) bench { return &simFig8{env: env} }

// fig8Workloads is the tiny profile's matrix with graph generation
// seeded from the run's seed (42 is the profile's own seed).
func fig8Workloads(seed int64) []core.Workload {
	wls := core.ProfileTiny.Workloads()
	for i := range wls {
		wls[i].Seed = seed
	}
	return wls
}

func (s *simFig8) setup() error {
	for _, w := range fig8Workloads(s.env.seed) {
		p, err := core.Prepare(w)
		if err != nil {
			return err
		}
		s.prep = append(s.prep, p)
	}
	return nil
}

func (s *simFig8) close() { s.prep = nil }

// modeSuffix names each paper mode in metric names.
var modeSuffix = map[core.Mode]string{
	core.ModeConv4K: "4k", core.ModeConv2M: "2m", core.ModeConv1G: "1g",
	core.ModeDVMBM: "dvm-bm", core.ModeDVMPE: "dvm-pe", core.ModeDVMPEPlus: "dvm-pe-plus",
	core.ModeIdeal: "ideal",
}

func slug(m core.Mode) string { return modeSuffix[m] }

func (s *simFig8) measure(tr *tracer) pass {
	var p pass
	cfg := core.ProfileTiny.SystemConfig()
	cfg.Workers = runner.BudgetFor(1)
	root := tr.begin("sim-fig8", "bench", -1, 0)
	cells := make([]core.Figure8Cell, len(s.prep))
	coll := &obs.Collector{}
	acc := map[core.Mode]float64{}
	for i, pr := range s.prep {
		cell := core.Figure8Cell{
			Algorithm: pr.Workload.Algorithm, Dataset: pr.G.Name,
			Cycles: map[core.Mode]uint64{}, Normalized: map[core.Mode]float64{},
			Results: map[core.Mode]core.RunResult{},
		}
		for _, m := range core.AllModes {
			p.attempted++
			sp := tr.begin("run/"+slug(m)+"/"+cell.Algorithm+"/"+cell.Dataset, "core", root, 1)
			t := time.Now()
			r, err := pr.Run(m, cfg)
			p.jobs = append(p.jobs, time.Since(t).Seconds())
			tr.end(sp)
			if err == nil {
				err = core.CrossCheck(r)
			}
			if err != nil {
				p.fail("%s/%s %v: %v", cell.Algorithm, cell.Dataset, m, err)
				continue
			}
			cell.Results[m] = r
			cell.Cycles[m] = r.Stats.Cycles
			coll.Add(r.Metrics)
			p.work += float64(r.Stats.Accesses)
			acc[m] += float64(r.Stats.Accesses)
		}
		if ideal := cell.Cycles[core.ModeIdeal]; ideal > 0 {
			for m, c := range cell.Cycles {
				cell.Normalized[m] = float64(c) / float64(ideal)
			}
		}
		cells[i] = cell
	}
	tr.end(root)

	sp := tr.begin("check", "report", -1, 0)
	s.check(&p, cells)
	tr.end(sp)
	p.counts = simCounts(coll.Snapshot())
	if tr != nil {
		p.layers = fig8Layers(tr, acc)
	}
	return p
}

// check renders Figures 8 and 9 from the runs exactly as report does
// and, at the golden seed, compares them with the expected output row
// by row: a differing row fails that workload's seven runs.
func (s *simFig8) check(p *pass, cells []core.Figure8Cell) {
	for _, c := range cells {
		if len(c.Results) != len(core.AllModes) {
			return // failed runs are already counted; the tables need every run
		}
	}
	fig8, fig9, err := renderFig8And9(cells)
	if err != nil {
		p.fail("rendering figures 8/9: %v", err)
		return
	}
	if s.env.seed != 42 {
		return
	}
	for _, c := range []struct{ title, got string }{{titleFig8, fig8}, {titleFig9, fig9}} {
		want, err := s.env.golden.section(c.title)
		if err != nil {
			p.fail("%v", err)
			continue
		}
		failed := map[int]bool{}
		for _, line := range diffLines(c.got, want) {
			// Lines 0-2 are title, header and rule; then one row per
			// workload, then the average row.
			if row := line - 3; row >= 0 && row < len(cells) {
				failed[row] = true
			} else {
				for r := range cells {
					failed[r] = true
				}
			}
		}
		for row := range failed {
			p.failed += len(core.AllModes)
			p.problems = append(p.problems, fmt.Sprintf("%s row %d (%s/%s) differs from the expected output",
				strings.TrimSuffix(c.title, ":"), row, cells[row].Algorithm, cells[row].Dataset))
		}
	}
}

// renderFig8And9 renders the two tables the way report.Figure8And9
// does, from runs the benchmark made itself.
func renderFig8And9(cells []core.Figure8Cell) (string, string, error) {
	modes := core.AllModes
	head8 := []string{"Workload", "Input"}
	head9 := []string{"Workload", "Input"}
	for _, m := range modes {
		head8 = append(head8, m.String())
		if m != core.ModeIdeal {
			head9 = append(head9, m.String())
		}
	}
	name := core.ProfileTiny.Name
	t8 := results.NewTable(fmt.Sprintf("Figure 8: execution time normalized to Ideal (profile %s; paper avgs: 4K 2.19x, 2M 2.14x, 1G ~1x, BM 1.23x, PE 1.035x, PE+ 1.017x)", name), head8...)
	t9 := results.NewTable(fmt.Sprintf("Figure 9: MMU dynamic energy normalized to 4K baseline (profile %s; paper: PE ~0.24x, BM ~0.85x)", name), head9...)
	sums8 := map[core.Mode]float64{}
	sums9 := map[core.Mode]float64{}
	for _, c := range cells {
		f9, err := core.Figure9(c)
		if err != nil {
			return "", "", err
		}
		row8 := []string{c.Algorithm, c.Dataset}
		row9 := []string{c.Algorithm, c.Dataset}
		for _, m := range modes {
			row8 = append(row8, results.F(c.Normalized[m], 3))
			sums8[m] += c.Normalized[m]
			if m != core.ModeIdeal {
				row9 = append(row9, results.F(f9.Normalized[m], 3))
				sums9[m] += f9.Normalized[m]
			}
		}
		t8.MustAddRow(row8...)
		t9.MustAddRow(row9...)
	}
	n := float64(len(cells))
	avg8 := []string{"Average", ""}
	avg9 := []string{"Average", ""}
	for _, m := range modes {
		avg8 = append(avg8, results.F(sums8[m]/n, 3))
		if m != core.ModeIdeal {
			avg9 = append(avg9, results.F(sums9[m]/n, 3))
		}
	}
	t8.MustAddRow(avg8...)
	t9.MustAddRow(avg9...)
	return t8.String(), t9.String(), nil
}

// simCounts lists the exact simulated counts of merged run metrics:
// they depend only on the inputs, never on host speed.
func simCounts(s obs.Snapshot) []count {
	var cs []count
	for _, n := range []string{"accel.accesses", "accel.cycles", "iommu.walk.memrefs",
		"memsys.accesses", "memsys.queue.cycles", "iommu.preload.squashed"} {
		cs = append(cs, count{n, fmt.Sprint(s.Get(n))})
	}
	for _, n := range []string{"mmu.tlb", "mmu.pwc", "mmu.avc", "mmu.bmcache"} {
		h, m := s.Get(n+".hits"), s.Get(n+".misses")
		ratio := "n/a"
		if h+m > 0 {
			ratio = fmt.Sprintf("%.6f (%d/%d)", float64(h)/float64(h+m), h, h+m)
		}
		cs = append(cs, count{n + ".hit_ratio", ratio})
	}
	return cs
}

// fig8Layers derives sim-fig8's per-layer numbers from the traced
// pass: time in Prepared.Run per mode over the 15 workloads, the
// engine+memsys cost per access (Ideal translates nothing) and each
// mode's extra translation cost per access.
func fig8Layers(tr *tracer, acc map[core.Mode]float64) []metric {
	var out []metric
	runS := map[core.Mode]float64{}
	for _, m := range core.AllModes {
		runS[m] = tr.sumByName("run/" + slug(m) + "/")
		out = append(out, metric{"core.run_s." + slug(m), "s", runS[m]})
	}
	ideal := core.ModeIdeal
	if acc[ideal] > 0 {
		out = append(out, metric{"accel.ns_per_access", "ns", runS[ideal] / acc[ideal] * 1e9})
	}
	for _, m := range core.AllModes {
		if m != ideal && acc[m] > 0 {
			out = append(out, metric{"mmu.extra_ns_per_access." + slug(m), "ns", (runS[m] - runS[ideal]) / acc[m] * 1e9})
		}
	}
	return out
}

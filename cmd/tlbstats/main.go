// Command tlbstats sweeps the accelerator TLB size for one graph workload
// and prints the 4 KB-page miss rate at each size — the drill-down behind
// Figure 2 (the figure itself is `dvmrepro -only fig2`).
//
// Usage:
//
//	tlbstats [-profile small] [-alg PageRank -dataset Wiki] [-j N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/results"
)

func main() {
	profileName := flag.String("profile", "small", "experiment profile: "+strings.Join(core.ProfileNames(), "|"))
	alg := flag.String("alg", "PageRank", "algorithm: BFS|PageRank|SSSP|CF")
	dataset := flag.String("dataset", "Wiki", "dataset: "+strings.Join(graph.DatasetNames(), "|"))
	jobs := flag.Int("j", 0, "max concurrent TLB sizes (0 = one per CPU, 1 = sequential)")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "tlbstats", false)
	prof, err := core.ProfileByName(*profileName)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	d, err := graph.DatasetByName(*dataset)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	p, err := core.Prepare(core.Workload{
		Algorithm: *alg, Dataset: d, Scale: prof.Scale,
		PageRankIters: prof.PageRankIters, Seed: 42,
	})
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	sizes := []int{2, 4, 8, 16, 32, 64, 128, 256}
	rates, err := core.TLBMissRateVsSizeCtx(context.Background(), p, prof.SystemConfig(), sizes, *jobs)
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	t := results.NewTable(fmt.Sprintf("TLB size sweep: %s/%s at 4 KB pages (profile %s)", *alg, *dataset, prof.Name),
		"TLB entries", "Miss rate")
	keys := make([]int, 0, len(rates))
	for k := range rates {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		t.MustAddRow(fmt.Sprintf("%d", k), results.Pct(rates[k]))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		lg.Exitf(1, "%v", err)
	}
}

// Command cdvm details one memory-intensive CPU workload of Figure 10:
// its VM overhead, TLB-hierarchy miss rate and walk cycles under
// conventional 4 KB paging, transparent huge pages and cDVM (Section 7
// of the paper). The figure itself is `dvmrepro -only fig10`.
//
// Usage:
//
//	cdvm -workload mcf [-overlap]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/results"
)

func main() {
	workload := flag.String("workload", "", "run a single workload (mcf|bt|cg|canneal|xsbench)")
	overlap := flag.Bool("overlap", false, "enable the §7.1 cDVM store-overlap optimization")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "cdvm", false)
	if *workload == "" {
		lg.Exitf(2, "-workload is required (the full Figure 10 is dvmrepro -only fig10)")
	}
	spec, err := cpu.WorkloadByName(*workload)
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	r, err := cpu.Run(spec, cpu.Config{StoreOverlap: *overlap})
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	if *overlap {
		fmt.Println("cDVM store-overlap optimization enabled (paper §7.1)")
	}
	fmt.Printf("%s (%s): footprint %s, %d accesses, base %.0f cycles\n\n",
		spec.Name, spec.Source, results.Bytes(spec.Footprint), spec.Accesses, r.BaseCycles)
	t := results.NewTable("", "Scheme", "VM overhead", "TLB-hierarchy miss", "Walk cycles")
	for _, s := range []cpu.Scheme{cpu.Scheme4K, cpu.SchemeTHP, cpu.SchemeCDVM} {
		t.MustAddRow(s.String(), results.Pct(r.Overhead[s]), results.Pct(r.L2MissRate[s]), fmt.Sprintf("%d", r.WalkCycles[s]))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		lg.Exitf(1, "%v", err)
	}
}

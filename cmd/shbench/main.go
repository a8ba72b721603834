// Command shbench runs one cell of Table 4: the percentage of system
// memory that the shbench allocation workload can allocate before
// identity mapping (VA==PA) fails to hold. The table itself is
// `dvmrepro -only table4`.
//
// Usage:
//
//	shbench -expt 2 [-mem 32]   # memory in GB
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/shbench"
)

func main() {
	expt := flag.Int("expt", 0, "experiment to run (1-3)")
	memGB := flag.Uint64("mem", 32, "system memory in GB")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "shbench", false)
	if *expt == 0 {
		lg.Exitf(2, "-expt is required (the full Table 4 is dvmrepro -only table4)")
	}
	for _, e := range shbench.Experiments {
		if e.ID != *expt {
			continue
		}
		r, err := shbench.Run(e, *memGB<<30)
		if err != nil {
			lg.Exitf(1, "%v", err)
		}
		fmt.Printf("experiment %d at %d GB: %.1f%% of memory identity mapped (%d allocations, %d bytes)\n",
			e.ID, *memGB, r.Percent, r.Allocations, r.AllocatedBytes)
		return
	}
	lg.Exitf(1, "no experiment %d (have 1-3)", *expt)
}

// Command dvminspect builds a workload's address space and dumps its page
// tables — conventional and Permission Entry forms side by side — making
// the paper's Table 1 effect visible structurally.
//
// Usage:
//
//	dvminspect [-alg PageRank] [-dataset FR] [-profile tiny] [-pe-only]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/osmodel"
)

func main() {
	alg := flag.String("alg", "PageRank", "algorithm: BFS|PageRank|SSSP|CF")
	dataset := flag.String("dataset", "FR", "dataset: "+strings.Join(graph.DatasetNames(), "|"))
	profileName := flag.String("profile", "tiny", "experiment profile: "+strings.Join(core.ProfileNames(), "|"))
	peOnly := flag.Bool("pe-only", false, "dump only the Permission Entry table")
	quiet := flag.Bool("q", false, "suppress status output")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvminspect", *quiet)
	prof, err := core.ProfileByName(*profileName)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	d, err := graph.DatasetByName(*dataset)
	if err != nil {
		lg.Exitf(2, "%v", err)
	}
	if err := inspect(os.Stdout, *alg, d, prof, *peOnly); err != nil {
		lg.Exitf(1, "%v", err)
	}
}

// inspect writes to out the layout of algorithm alg on dataset d at
// profile prof, then the Dump of its conventional 4K page table (unless
// peOnly) and of its Permission Entry page table.
func inspect(out io.Writer, alg string, d graph.DatasetSpec, prof core.Profile, peOnly bool) error {
	// The layout and its tables read only the dataset's shape, so no
	// graph is generated.
	p, err := core.PrepareLayout(core.Workload{
		Algorithm: alg, Dataset: d, Scale: prof.Scale,
		PageRankIters: prof.PageRankIters, Seed: 42,
	})
	if err != nil {
		return err
	}
	v, e, err := d.Shape(prof.Scale)
	if err != nil {
		return err
	}
	sys, err := osmodel.NewSystem(32 << 30)
	if err != nil {
		return err
	}
	proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, Seed: 42})
	lay, err := accel.BuildShapeLayout(proc, v, e, p.Prog.PropBytes)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s/%s: %d vertices, %d edges, heap %d KB, identity=%v\n",
		alg, d.Name, v, e, lay.HeapBytes>>10, lay.IdentityMapped)
	fmt.Fprintf(out, "arrays: props=%#x temps=%#x index=%#x edges=%#x frontier=%#x\n\n",
		uint64(lay.VertexProp), uint64(lay.TempProp), uint64(lay.EdgeIndex), uint64(lay.Edges), uint64(lay.Frontier))

	if !peOnly {
		std, err := proc.BuildCanonicalTable(false)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== conventional 4K page table ==")
		if err := std.Dump(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	pe, err := proc.BuildCanonicalTable(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Permission Entry page table ==")
	return pe.Dump(out)
}

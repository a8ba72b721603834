package pagetable_test

import (
	"math/rand"
	"testing"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// TestCompactedMatchesInPlaceCPUWorkloads runs the Compacted checks on
// the canonical 4 KB tables of Figure 10's workloads, built the way the
// cpu package builds them: GB-scale identity-mapped heaps, the tables
// cDVM derives its PE table from.
func TestCompactedMatchesInPlaceCPUWorkloads(t *testing.T) {
	for _, w := range cpu.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			size := uint64(1)
			for size < 2*w.Footprint {
				size <<= 1
			}
			sys, err := osmodel.NewSystem(size)
			if err != nil {
				t.Fatal(err)
			}
			proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, IdentityMapAll: true, Seed: w.Seed})
			if _, err := proc.LoadProgram(osmodel.Program{CodeBytes: 2 << 20, DataBytes: 1 << 20, BSSBytes: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			heap, _, err := proc.Mmap(w.Footprint, addr.ReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := proc.BuildCanonicalTable(false)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(w.Seed))
			var probes []addr.VA
			for i := 0; i < 300; i++ {
				probes = append(probes, heap.Start+addr.VA(rng.Uint64()%(heap.Size+4<<20)))
			}
			tbl.ForEachPage(func(va addr.VA, _ addr.PA, _ addr.Perm) {
				if va < heap.Start && rng.Intn(64) == 0 {
					probes = append(probes, va+addr.VA(rng.Intn(4096)))
				}
			})
			pagetable.CheckCompacted(t, tbl, probes)
		})
	}
}

// TestCompactedMatchesInPlaceTinyWorkloads runs the Compacted checks on
// the canonical 4 KB tables of the 15 tiny-profile accelerator
// workloads, laid out the way core's cached machine lays them out (32 GB
// system, identity-mapped heap): core derives each DVM-PE table as the
// Compacted copy of that table instead of building a second one and
// compacting it in place.
func TestCompactedMatchesInPlaceTinyWorkloads(t *testing.T) {
	for i, w := range core.ProfileTiny.Workloads() {
		t.Run(w.Algorithm+"/"+w.Dataset.Name, func(t *testing.T) {
			p, err := core.Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := osmodel.NewSystem(32 << 30)
			if err != nil {
				t.Fatal(err)
			}
			proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true})
			if _, err := accel.BuildLayout(proc, p.G, p.Prog.PropBytes); err != nil {
				t.Fatal(err)
			}
			tbl, err := proc.BuildCanonicalTable(false)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(i)))
			var probes []addr.VA
			tbl.ForEachPage(func(va addr.VA, _ addr.PA, _ addr.Perm) {
				if rng.Intn(16) == 0 {
					probes = append(probes, va+addr.VA(rng.Intn(4096)))
				}
			})
			pagetable.CheckCompacted(t, tbl, probes)
		})
	}
}

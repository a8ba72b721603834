package pagetable_test

import (
	"math/rand"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
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

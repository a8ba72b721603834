// Quickstart: boot a simulated machine, identity-map a heap allocation,
// build the Permission Entry page table and validate accesses through the
// IOMMU — the core DVM mechanism in ~60 lines.
package main

import (
	"fmt"
	"log"

	dvm "github.com/dvm-sim/dvm"
)

func main() {
	// A machine with 1 GB of physical memory.
	sys, err := dvm.NewSystem(1 << 30)
	if err != nil {
		log.Fatal(err)
	}

	// A process whose heap allocations are identity mapped (VA == PA).
	proc := sys.NewProcess(dvm.Policy{IdentityMapHeap: true})

	// Allocate 8 MB. With identity mapping the returned virtual range is
	// also the physical range.
	r, identity, err := proc.Mmap(8<<20, dvm.ReadWrite)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocated %v, identity mapped: %v\n", r, identity)

	pa, err := proc.Touch(r.Start+0x1234, dvm.Read)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VA %#x is backed by PA %#x (equal: %v)\n",
		uint64(r.Start)+0x1234, uint64(pa), uint64(pa) == uint64(r.Start)+0x1234)

	// Build the compact page table: identity regions fold into
	// Permission Entries, deleting the leaf level entirely.
	std, err := proc.BuildCanonicalTable(false)
	if err != nil {
		log.Fatal(err)
	}
	pe, err := proc.BuildCanonicalTable(true)
	if err != nil {
		log.Fatal(err)
	}
	stdStats, err := std.SizeStats()
	if err != nil {
		log.Fatal(err)
	}
	peStats, err := pe.SizeStats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page table: %d B conventional -> %d B with Permission Entries\n",
		stdStats.Bytes, peStats.Bytes)

	// An IOMMU in DVM-PE+ mode performs Devirtualized Access Validation:
	// most accesses validate from the Access Validation Cache and read
	// directly at their own (identity) address, with the data preload
	// overlapped with validation.
	iommu, err := dvm.NewIOMMU(dvm.IOMMUConfig{Mode: dvm.ModeDVMPEPlus}, pe, nil)
	if err != nil {
		log.Fatal(err)
	}
	plan := iommu.Translate(r.Start+0x1234, dvm.Read)
	fmt.Printf("DAV: PA=%#x fault=%v probes=%d walk-memory-refs=%d preload-overlap=%v\n",
		uint64(plan.PA), plan.Fault, plan.ProbeCycles, len(plan.MemRefs), plan.OverlapData)

	// Protection still holds: writes to read-only memory fault.
	ro, _, err := proc.Mmap(1<<20, dvm.ReadOnly)
	if err != nil {
		log.Fatal(err)
	}
	pe2, err := proc.BuildCanonicalTable(true)
	if err != nil {
		log.Fatal(err)
	}
	iommu2, err := dvm.NewIOMMU(dvm.IOMMUConfig{Mode: dvm.ModeDVMPEPlus}, pe2, nil)
	if err != nil {
		log.Fatal(err)
	}
	w := iommu2.Translate(ro.Start, dvm.Write)
	fmt.Printf("write to read-only region faults: %v\n", w.Fault)
}

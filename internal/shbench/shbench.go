// Package shbench reproduces the paper's Table 4 experiment: how much of
// physical memory can be allocated with identity mapping (VA==PA) intact
// under an adversarial allocation workload.
//
// The paper uses MicroQuill's shbench, "configured to continuously allocate
// memory of variable sizes until identity mapping fails to hold for an
// allocation". Three configurations are measured at 16/32/64 GB of system
// memory:
//
//	Experiment 1: small chunks, 100 – 10,000 bytes
//	Experiment 2: large chunks, 100,000 – 10,000,000 bytes
//	Experiment 3: four concurrent instances of experiment 2
//
// Small chunks go through the pooling malloc (osmodel.Malloc), exactly as
// the paper's modified glibc routes them through mmap'd pools.
package shbench

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/prng"
)

// Experiment describes one shbench configuration.
type Experiment struct {
	// ID is the paper's experiment number (1-3).
	ID int
	// MinBytes / MaxBytes bound the allocation-size distribution.
	MinBytes, MaxBytes uint64
	// Instances is the number of concurrent allocating processes.
	Instances int
	// FreeFraction is the probability a step frees instead of
	// allocating. shbench's loops allocate batches of chunks and later
	// free them together, so frees release FreeBatch consecutive
	// allocations — consecutively allocated chunks are physically
	// adjacent and coalesce back into large contiguous runs.
	FreeFraction float64
	// FreeBatch is the number of consecutive live chunks one free step
	// releases.
	FreeBatch int
	// Seed for reproducibility.
	Seed int64
}

// Experiments is Table 4's experiment list.
var Experiments = []Experiment{
	{ID: 1, MinBytes: 100, MaxBytes: 10_000, Instances: 1, FreeFraction: 0.02, FreeBatch: 12, Seed: 1},
	{ID: 2, MinBytes: 100_000, MaxBytes: 10_000_000, Instances: 1, FreeFraction: 0.02, FreeBatch: 12, Seed: 2},
	{ID: 3, MinBytes: 100_000, MaxBytes: 10_000_000, Instances: 4, FreeFraction: 0.02, FreeBatch: 12, Seed: 3},
}

// MemorySizes is Table 4's system-memory axis.
var MemorySizes = []uint64{16 << 30, 32 << 30, 64 << 30}

// Result is one Table 4 cell.
type Result struct {
	Experiment Experiment
	MemBytes   uint64
	// AllocatedBytes is the memory successfully allocated before the
	// first identity-mapping failure (summed over instances).
	AllocatedBytes uint64
	// Percent is AllocatedBytes / MemBytes * 100 — the number the paper
	// reports (95-97%).
	Percent float64
	// Allocations made before the failure.
	Allocations int
}

// Run executes one experiment cell: allocate until identity mapping fails
// for any instance, then report the identity-mapped fraction of system
// memory.
func Run(exp Experiment, memBytes uint64) (Result, error) {
	res := Result{Experiment: exp, MemBytes: memBytes}
	if exp.Instances < 1 || exp.MinBytes == 0 || exp.MaxBytes < exp.MinBytes {
		return res, fmt.Errorf("shbench: bad experiment %+v", exp)
	}
	sys, err := osmodel.NewSystem(memBytes)
	if err != nil {
		return res, err
	}
	type instance struct {
		proc *osmodel.Process
		m    *osmodel.Malloc
		live []allocRef
		head int // FIFO start: frees release the oldest chunks first
		rng  *prng.Source
	}
	insts := make([]*instance, exp.Instances)
	for i := range insts {
		proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true, Seed: exp.Seed + int64(i)})
		insts[i] = &instance{
			proc: proc,
			m:    osmodel.NewMalloc(proc),
			rng:  prng.New(exp.Seed*1000 + int64(i)),
		}
	}

	batch := exp.FreeBatch
	if batch == 0 {
		batch = 1
	}
	for {
		for _, in := range insts {
			if in.rng.Float64() < exp.FreeFraction && in.head < len(in.live) {
				// Free a batch of consecutively allocated chunks,
				// oldest first (the live list is in allocation
				// order, so the batch is physically adjacent).
				n := batch
				if rem := len(in.live) - in.head; n > rem {
					n = rem
				}
				for _, ref := range in.live[in.head : in.head+n] {
					if err := in.m.Free(ref.va); err != nil {
						return res, err
					}
					res.AllocatedBytes -= ref.size
				}
				in.head += n
				if in.head > len(in.live)/2 && in.head > 1<<16 {
					in.live = append([]allocRef(nil), in.live[in.head:]...)
					in.head = 0
				}
				continue
			}
			size := exp.MinBytes + in.rng.Uint64()%(exp.MaxBytes-exp.MinBytes+1)
			before := in.proc.Stats().IdentityFailures
			va, err := in.m.Alloc(size)
			if err != nil || in.proc.Stats().IdentityFailures > before {
				// Identity mapping failed to hold (or memory ran
				// out entirely): the experiment ends.
				res.Percent = 100 * float64(res.AllocatedBytes) / float64(memBytes)
				return res, nil
			}
			in.live = append(in.live, allocRef{va: va, size: size})
			res.AllocatedBytes += size
			res.Allocations++
		}
	}
}

type allocRef struct {
	va   addr.VA
	size uint64
}

package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/dvm-sim/dvm/internal/accel"
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
	"github.com/dvm-sim/dvm/internal/osmodel"
	"github.com/dvm-sim/dvm/internal/pagetable"
	"github.com/dvm-sim/dvm/internal/serve"
)

// The per-layer probes time one layer's public entry point in a loop
// over seeded inputs. Every traced run makes all of them, whatever its
// workload, so each traced run reports the same per-layer metrics.
const (
	probeReps     = 3       // each probe reports the median of its repetitions
	streamLen     = 1 << 18 // addresses per translation/walk/memsys repetition
	mallocPairs   = 1 << 17 // Alloc+Free pairs per malloc repetition
	mallocLive    = 1024    // live chunks the malloc probe keeps
	durableWrites = 30      // Store.Put / Checkpoint.Record calls
)

// runProbes runs every probe. Each probe that errors, or whose layer
// reports a fault on a mapped address, counts as a failed operation.
func runProbes(env runEnv) pass {
	var p pass
	rng := rand.New(rand.NewSource(env.seed))
	probe := func(name string, fn func() ([]metric, error)) {
		p.attempted++
		ms, err := fn()
		if err != nil {
			p.fail("probe %s: %v", name, err)
			return
		}
		p.layers = append(p.layers, ms...)
	}
	probe("graph.prepare", func() ([]metric, error) {
		t := time.Now()
		for _, w := range fig8Workloads(env.seed) {
			if _, err := core.Prepare(w); err != nil {
				return nil, err
			}
		}
		return []metric{{"graph.prepare_s", "s", time.Since(t).Seconds()}}, nil
	})
	wiki, err := graph.DatasetByName("Wiki")
	if err != nil {
		p.fail("probe setup: %v", err)
		return p
	}
	prof := core.ProfileTiny
	pr, err := core.Prepare(core.Workload{Algorithm: "PageRank", Dataset: wiki, Scale: prof.Scale,
		PageRankIters: prof.PageRankIters, Seed: env.seed})
	if err != nil {
		p.fail("probe setup: %v", err)
		return p
	}
	probe("core.run", func() ([]metric, error) { return probeRuns(pr) })
	probe("memsys.access", func() ([]metric, error) { return probeMemsys(rng) })
	probe("mmu.translate", func() ([]metric, error) { return probeTranslate(pr, rng) })
	probe("osmodel.malloc", func() ([]metric, error) { return probeMalloc(rng) })
	probe("serve.store_put", func() ([]metric, error) { return probeStorePut(filepath.Join(env.workDir, "probe-store")) })
	probe("core.checkpoint_record", func() ([]metric, error) {
		return probeCheckpoint(filepath.Join(env.workDir, "probe.ckpt"))
	})
	return p
}

// timeReps runs fn probeReps times and returns the median duration.
func timeReps(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// probeRuns times one Prepared.Run of tiny PageRank/Wiki per mode, after
// a warm-up run that builds the cached layout and page tables: the
// steady per-run cost dvmbench tracks as run/<mode>.
func probeRuns(pr *core.Prepared) ([]metric, error) {
	cfg := core.ProfileTiny.SystemConfig()
	var out []metric
	for _, m := range core.AllModes {
		if _, err := pr.Run(m, cfg); err != nil {
			return nil, err
		}
		d, err := timeReps(func() error { _, err := pr.Run(m, cfg); return err })
		if err != nil {
			return nil, err
		}
		out = append(out, metric{"core.run_ms." + slug(m), "ms", d.Seconds() * 1e3})
	}
	return out, nil
}

// probeMemsys times memsys.Controller.Access over a seeded stream of
// line addresses in 1 GiB, issued back to back.
func probeMemsys(rng *rand.Rand) ([]metric, error) {
	pas := make([]addr.PA, streamLen)
	for i := range pas {
		pas[i] = addr.PA(rng.Uint64()%(1<<30)) &^ 63
	}
	ctl, err := memsys.NewController(memsys.Config{})
	if err != nil {
		return nil, err
	}
	var now uint64
	d, err := timeReps(func() error {
		for _, pa := range pas {
			now = ctl.Access(pa, now)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []metric{{"memsys.access_ns", "ns", float64(d.Nanoseconds()) / streamLen}}, nil
}

// heapStream builds the workload's identity-mapped heap as core.Table1
// does and draws a seeded stream of addresses inside its arrays.
func heapStream(pr *core.Prepared, rng *rand.Rand) (*osmodel.Process, []addr.VA, error) {
	sys, err := osmodel.NewSystem(32 << 30)
	if err != nil {
		return nil, nil, err
	}
	proc := sys.NewProcess(osmodel.Policy{IdentityMapHeap: true})
	lay, err := accel.BuildLayout(proc, pr.G, pr.Prog.PropBytes)
	if err != nil {
		return nil, nil, err
	}
	var regions []addr.VRange
	for _, base := range []addr.VA{lay.VertexProp, lay.TempProp, lay.EdgeIndex, lay.Edges, lay.Frontier} {
		v := proc.FindVMA(base)
		if v == nil {
			return nil, nil, fmt.Errorf("no VMA at layout base %#x", uint64(base))
		}
		regions = append(regions, v.R)
	}
	vas := make([]addr.VA, streamLen)
	for i := range vas {
		r := regions[rng.Intn(len(regions))]
		vas[i] = r.Start + addr.VA(rng.Uint64()%r.Size)&^7
	}
	return proc, vas, nil
}

// modeState builds the OS-model state a mode's IOMMU needs, as the
// mode's registered descriptor declares it.
func modeState(proc *osmodel.Process, m core.Mode) (mmu.State, error) {
	d, ok := mmu.DescriptorOf(m)
	if !ok || d.NeedsBlocks {
		return mmu.State{}, fmt.Errorf("mode %v not probed", m)
	}
	var st mmu.State
	var err error
	switch d.Table {
	case mmu.TableCanonical:
		st.Table, err = proc.BuildCanonicalTable(false)
	case mmu.TableHuge:
		st.Table, err = proc.BuildHugeTable(d.PageSize)
	case mmu.TablePE:
		st.Table, err = proc.BuildCanonicalTable(true)
	}
	if d.NeedsBitmap {
		st.Bitmap = mmu.NewPermBitmap()
		proc.ForEachIdentityPage(st.Bitmap.Set)
	}
	return st, err
}

// probeTranslate times mmu.IOMMU.TranslateInto per mode and the
// canonical 4K table's WalkInto over one seeded heap stream.
func probeTranslate(pr *core.Prepared, rng *rand.Rand) ([]metric, error) {
	proc, vas, err := heapStream(pr, rng)
	if err != nil {
		return nil, err
	}
	var out []metric
	for _, m := range core.AllModes {
		st, err := modeState(proc, m)
		if err != nil {
			return nil, err
		}
		u, err := mmu.NewState(mmu.Config{Mode: m, TLBEntries: core.ProfileTiny.TLBEntries}, st)
		if err != nil {
			return nil, err
		}
		var plan mmu.Plan
		d, err := timeReps(func() error {
			for _, va := range vas {
				u.TranslateInto(va, addr.Read, &plan)
				if plan.Fault {
					return fmt.Errorf("%v faulted on mapped address %#x", m, uint64(va))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, metric{"mmu.translate_ns." + slug(m), "ns", float64(d.Nanoseconds()) / streamLen})
	}
	tbl, err := proc.BuildCanonicalTable(false)
	if err != nil {
		return nil, err
	}
	var w pagetable.WalkResult
	d, err := timeReps(func() error {
		for _, va := range vas {
			tbl.WalkInto(va, &w)
			if w.Outcome == pagetable.WalkFault {
				return fmt.Errorf("walk faulted on mapped address %#x", uint64(va))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(out, metric{"pagetable.walk_ns", "ns", float64(d.Nanoseconds()) / streamLen}), nil
}

// probeMalloc times osmodel.Malloc Alloc+Free pairs with experiment 1's
// size mix (100-10,000 bytes) on a fresh 16 GB system, keeping a window
// of live chunks so frees hit populated pools.
func probeMalloc(rng *rand.Rand) ([]metric, error) {
	sizes := make([]uint64, mallocPairs)
	for i := range sizes {
		sizes[i] = 100 + rng.Uint64()%(10_000-100+1)
	}
	d, err := timeReps(func() error {
		sys, err := osmodel.NewSystem(16 << 30)
		if err != nil {
			return err
		}
		m := osmodel.NewMalloc(sys.NewProcess(osmodel.Policy{IdentityMapHeap: true}))
		live := make([]addr.VA, 0, mallocLive)
		for i, size := range sizes {
			va, err := m.Alloc(size)
			if err != nil {
				return err
			}
			if len(live) < mallocLive {
				live = append(live, va)
				continue
			}
			slot := i % mallocLive
			if err := m.Free(live[slot]); err != nil {
				return err
			}
			live[slot] = va
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []metric{{"osmodel.malloc_ns", "ns", float64(d.Nanoseconds()) / mallocPairs}}, nil
}

// probeStorePut times serve.Store.Put (temp write, fsync, rename, dir
// fsync) of a job record.
func probeStorePut(dir string) ([]metric, error) {
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	j := &serve.Job{ID: store.NextID(), Spec: serve.JobSpec{Profile: "tiny", Client: "probe"}, State: serve.StateQueued, TotalCells: 7}
	var ms []float64
	for i := 0; i < durableWrites; i++ {
		t := time.Now()
		if err := store.Put(j); err != nil {
			return nil, err
		}
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	return []metric{{"serve.store_put_ms", "ms", median(ms)}}, nil
}

// probeCheckpoint times core.Checkpoint.Record at sync-every 1 (one
// fsync'd JSONL line per cell, the service default).
func probeCheckpoint(path string) ([]metric, error) {
	ck, err := core.OpenCheckpoint(path, "tiny", false)
	if err != nil {
		return nil, err
	}
	ck.SetSyncEvery(1)
	var ms []float64
	for i := 0; i < durableWrites; i++ {
		t := time.Now()
		if err := ck.Record(fmt.Sprintf("probe/%d", i), core.Table1Row{Input: "FR", StdBytes: 16 << 10, L1Fraction: 0.25, PEBytes: 12 << 10}); err != nil {
			ck.Close()
			return nil, err
		}
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	if err := ck.Close(); err != nil {
		return nil, err
	}
	return []metric{{"core.checkpoint_record_ms", "ms", median(ms)}}, nil
}

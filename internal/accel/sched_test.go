package accel

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/memsys"
	"github.com/dvm-sim/dvm/internal/mmu"
)

// issue is one priced access as the scheduler issued it.
type issue struct {
	pe   int
	a    access
	at   uint64 // issue cycle
	done uint64 // completion cycle
}

// idealEngine is a bare engine over an Ideal IOMMU and a default memory
// system: the scheduler and pricing path with nothing else around it.
func idealEngine(cfg Config) *Engine {
	return &Engine{
		cfg:   cfg.withDefaults(),
		iommu: mmu.MustNew(mmu.Config{Mode: mmu.ModeIdeal}, nil, nil),
		mem:   memsys.MustNewController(memsys.Config{}),
	}
}

// randomPhase draws per-PE access lists: some PEs empty, addresses
// spread over a few pages so channels contend.
func randomPhase(rng *rand.Rand, npe int) [][]access {
	lists := make([][]access, npe)
	for pe := range lists {
		n := rng.Intn(120)
		if rng.Intn(5) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			kind := addr.Read
			if rng.Intn(3) == 0 {
				kind = addr.Write
			}
			lists[pe] = append(lists[pe], access{va: addr.VA(rng.Intn(1<<14) << 6), kind: kind})
		}
	}
	return lists
}

// recStream replays a list and, on every poll after the first, logs the
// access that just issued with the issue and completion cycles the
// engine's scheduler state holds for it.
type recStream struct {
	e    *Engine
	pe   int
	list []access
	i    int
	log  *[]issue
}

func (s *recStream) next() (access, bool) {
	if s.i > 0 {
		p := &s.e.pes[s.pe]
		last := (p.ringIdx + len(p.ring) - 1) % len(p.ring)
		*s.log = append(*s.log, issue{pe: s.pe, a: s.list[s.i-1], at: p.clock - 1, done: p.ring[last]})
	}
	if s.i >= len(s.list) {
		return access{}, false
	}
	s.i++
	return s.list[s.i-1], true
}

// refSchedule is the scheduler's specification as a linear scan: the PE
// with the earliest ready time max(clock, oldest MLP slot) issues next,
// the lowest index winning ties; streams are polled in index order at
// the start and the issuing PE is re-polled right after it issues.
func refSchedule(e *Engine, lists [][]access, log *[]issue) {
	mlp := e.cfg.MLP
	type pe struct {
		list    []access
		i       int
		clock   uint64
		ring    []uint64
		ringIdx int
	}
	pes := make([]pe, len(lists))
	for i := range pes {
		pes[i] = pe{list: lists[i], clock: e.now, ring: make([]uint64, mlp)}
		for j := range pes[i].ring {
			pes[i].ring[j] = e.now
		}
	}
	endTime := e.now
	for {
		best, bestT := -1, uint64(0)
		for i := range pes {
			p := &pes[i]
			if p.i >= len(p.list) {
				continue
			}
			t := p.clock
			if slot := p.ring[p.ringIdx]; slot > t {
				t = slot
			}
			if best < 0 || t < bestT {
				best, bestT = i, t
			}
		}
		if best < 0 {
			break
		}
		p := &pes[best]
		occ := uint64(0)
		for _, c := range p.ring {
			if c > bestT {
				occ++
			}
		}
		e.mlpHist.Observe(occ)
		a := p.list[p.i]
		p.i++
		done := e.priceAccess(best, a, bestT)
		*log = append(*log, issue{pe: best, a: a, at: bestT, done: done})
		p.ring[p.ringIdx] = done
		p.ringIdx = (p.ringIdx + 1) % mlp
		p.clock = bestT + 1
		if done > endTime {
			endTime = done
		}
	}
	e.now = endTime
}

// TestRunStreamsMatchesLinearScan runs the packed-key winner-tree
// scheduler and the linear-scan specification over the same random
// multi-phase workloads (1-16 PEs, MLP 1-8) and requires identical
// issue sequences, issue and completion cycles, phase end times and MLP
// occupancy distributions.
func TestRunStreamsMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		cfg := Config{PEs: 1 + rng.Intn(16), MLP: 1 + rng.Intn(8)}
		got, want := idealEngine(cfg), idealEngine(cfg)
		var gotLog, wantLog []issue
		for phase := 0; phase < 3; phase++ {
			lists := randomPhase(rng, cfg.PEs)
			streams := make([]stream, cfg.PEs)
			for pe := range streams {
				streams[pe] = &recStream{e: got, pe: pe, list: lists[pe], log: &gotLog}
			}
			got.runStreams(streams)
			refSchedule(want, lists, &wantLog)
			if got.now != want.now {
				t.Fatalf("trial %d %+v phase %d: end time %d, want %d", trial, cfg, phase, got.now, want.now)
			}
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("trial %d %+v: %d issues, want %d", trial, cfg, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("trial %d %+v: issue %d is %+v, want %+v", trial, cfg, i, gotLog[i], wantLog[i])
			}
		}
		if g, w := got.mlpHist.Snapshot(), want.mlpHist.Snapshot(); g != w {
			t.Fatalf("trial %d %+v: occupancy histogram\n%+v\nwant\n%+v", trial, cfg, g, w)
		}
		if got.stats != want.stats {
			t.Fatalf("trial %d %+v: stats %+v, want %+v", trial, cfg, got.stats, want.stats)
		}
	}
}

// TestRunStreamsKeyRangeGuard checks the packed-key limit: a phase whose
// times reach 2^(64-peBits) panics with a message naming the limit
// instead of silently mis-ordering PEs, and one just below it runs.
func TestRunStreamsKeyRangeGuard(t *testing.T) {
	const npe = 3
	limit := uint64(1) << (64 - bits.Len(npe))
	run := func(now uint64) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
				if msg == "" {
					msg = "non-string panic"
				}
			}
		}()
		e := idealEngine(Config{PEs: npe, MLP: 2})
		e.now = now
		streams := make([]stream, npe)
		for pe := range streams {
			streams[pe] = &sliceStream{list: []access{{va: addr.VA(pe << 6), kind: addr.Read}}}
		}
		e.runStreams(streams)
		return ""
	}
	if msg := run(limit - 1000); msg != "" {
		t.Errorf("phase ending below the key limit panicked: %s", msg)
	}
	if msg := run(limit - 1); !strings.Contains(msg, "overflows the scheduler key") {
		t.Errorf("phase ending at the key limit: panic %q, want a key-overflow message", msg)
	}
}

// BenchmarkRunStreams measures one engine scheduling step: the issue
// loop over 8 PEs at MLP 8 with every access priced through an Ideal
// IOMMU and the memory system, reported as ns per issued access.
func BenchmarkRunStreams(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const npe, perPE = 8, 4096
	e := idealEngine(Config{PEs: npe, MLP: 8})
	lists := make([]sliceStream, npe)
	streams := make([]stream, npe)
	for pe := range lists {
		for i := 0; i < perPE; i++ {
			lists[pe].list = append(lists[pe].list, access{va: addr.VA(rng.Intn(1<<20) << 6), kind: addr.Read})
		}
		streams[pe] = &lists[pe]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pe := range lists {
			lists[pe].i = 0
		}
		e.runStreams(streams)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*npe*perPE), "ns/access")
}

// BenchmarkSingleReadyDrain runs a whole PageRank on one PE, where the
// scheduler's winner tree is a single leaf: it prices runStreams' issue
// loop when there is no ordering work at all (BenchmarkRunStreams has
// eight PEs contending).
func BenchmarkSingleReadyDrain(b *testing.B) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(11, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := buildEngineCfg(b, mmu.ModeIdeal, g, PageRank(3), 128, Config{PEs: 1})
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// sliceStream feeds runStreams a pre-collected access list.
type sliceStream struct {
	list []access
	i    int
}

func (s *sliceStream) next() (access, bool) {
	if s.i >= len(s.list) {
		return access{}, false
	}
	a := s.list[s.i]
	s.i++
	return a, true
}

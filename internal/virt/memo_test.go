package virt

import (
	"math/rand"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

// TestPageTableMemoMatchesWalks: a machine that replays the memoized
// host walks of the guest table's pages prices every access exactly as
// one that walks the host table for every gPA, for every scheme, the
// default Config and a small heap at non-default offsets. The trace
// mixes heap reads and writes with unmapped and non-permitted accesses,
// and resolveHost is also asked for gPAs just outside the memoized
// region, which take the walk path.
func TestPageTableMemoMatchesWalks(t *testing.T) {
	configs := []Config{
		{},
		{HeapBytes: 2 << 20, GuestHeapGVA: 3 << 30, GuestOffset: 256 << 20, HostOffset: 8 << 30, TLBEntries: 4},
	}
	for _, cfg := range configs {
		for _, s := range AllSchemes {
			m, err := NewMachine(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewMachine(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.ptPages = nil // walk every gPA
			if s != SchemeFullDVM && len(m.ptPages) == 0 {
				t.Fatalf("%v %+v: no guest page-table page memoized", s, cfg)
			}
			heap := m.cfg.HeapBytes
			rng := rand.New(rand.NewSource(int64(s) + 1))
			for i := 0; i < 20_000; i++ {
				gva := m.heapGVA + addr.VA(rng.Uint64()%heap)
				kind := addr.Read
				switch rng.Intn(50) {
				case 0:
					gva = 0xdead0000 // unmapped in the guest
				case 1:
					kind = addr.Execute // the heap is read-write only
				case 2, 3, 4:
					kind = addr.Write
				}
				if got, want := m.Translate(gva, kind), ref.Translate(gva, kind); got != want {
					t.Fatalf("%v %+v access %d gva %#x: plan %+v, walking every gPA %+v", s, cfg, i, uint64(gva), got, want)
				}
			}
			if got, want := m.Counters(), ref.Counters(); got != want {
				t.Errorf("%v %+v: counters %+v, walking every gPA %+v", s, cfg, got, want)
			}
			if s == SchemeFullDVM {
				continue
			}
			end := m.ptBase + addr.PA(uint64(len(m.ptPages))*addr.PageSize4K)
			for _, gpa := range []addr.PA{m.ptBase - 8, m.ptBase, end - 8, end, end + addr.PA(addr.PageSize4K)} {
				var gp, wp Plan
				gs, gf := m.resolveHost(addr.VA(gpa), &gp)
				ws, wf := ref.resolveHost(addr.VA(gpa), &wp)
				if gs != ws || gf != wf || gp != wp {
					t.Errorf("%v %+v gPA %#x: (%#x, %v, %+v), walking (%#x, %v, %+v)", s, cfg, uint64(gpa), uint64(gs), gf, gp, uint64(ws), wf, wp)
				}
			}
		}
	}
}

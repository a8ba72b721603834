package virt

import (
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

func newMachine(t *testing.T, s Scheme) *Machine {
	t.Helper()
	m, err := NewMachine(s, Config{HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTranslationComposition(t *testing.T) {
	// The nested translation must equal the composition of the two
	// tables for every scheme.
	for _, s := range AllSchemes {
		m := newMachine(t, s)
		for off := uint64(0); off < 8<<20; off += 123456 {
			gva := m.heapGVA + addr.VA(off)
			p := m.Translate(gva, addr.Read)
			if p.Fault {
				t.Fatalf("%v: fault at %#x", s, uint64(gva))
			}
			// Reference composition.
			gpa, _, ok := m.guest.Lookup(gva)
			if !ok {
				t.Fatalf("%v: guest table misses %#x", s, uint64(gva))
			}
			wantSPA := addr.PA(gpa)
			if m.host != nil {
				spa, _, ok := m.host.Lookup(addr.VA(gpa))
				if !ok {
					t.Fatalf("%v: host table misses gPA %#x", s, uint64(gpa))
				}
				wantSPA = spa
			}
			if p.SPA != wantSPA {
				t.Fatalf("%v: gva %#x -> spa %#x, want %#x", s, uint64(gva), uint64(p.SPA), uint64(wantSPA))
			}
		}
	}
}

func TestSchemeIdentityProperties(t *testing.T) {
	// Full DVM: sPA == gVA. Guest DVM: gPA == gVA. Host DVM: sPA == gPA.
	mFull := newMachine(t, SchemeFullDVM)
	gva := mFull.heapGVA + 0x1234
	if p := mFull.Translate(gva, addr.Read); uint64(p.SPA) != uint64(gva) {
		t.Errorf("full DVM: spa %#x != gva %#x", uint64(p.SPA), uint64(gva))
	}
	mGuest := newMachine(t, SchemeGuestDVM)
	gva = mGuest.heapGVA + 0x1234
	gpa, _, _ := mGuest.guest.Lookup(gva)
	if uint64(gpa) != uint64(gva) {
		t.Errorf("guest DVM: gpa %#x != gva %#x", uint64(gpa), uint64(gva))
	}
	mHost := newMachine(t, SchemeHostDVM)
	gva = mHost.heapGVA + 0x1234
	gpa, _, _ = mHost.guest.Lookup(gva)
	spa, _, _ := mHost.host.Lookup(addr.VA(gpa))
	if uint64(spa) != uint64(gpa) {
		t.Errorf("host DVM: spa %#x != gpa %#x", uint64(spa), uint64(gpa))
	}
	if uint64(gpa) == uint64(gva) {
		t.Error("host DVM guest dimension should NOT be identity")
	}
}

func TestColdWalkCosts(t *testing.T) {
	// A cold conventional 2D walk costs far more references than any DVM
	// variant; full DVM's first walk is a couple of PE fetches.
	costs := map[Scheme]int{}
	for _, s := range AllSchemes {
		m := newMachine(t, s)
		p := m.Translate(m.heapGVA, addr.Read)
		if p.Fault {
			t.Fatalf("%v: fault", s)
		}
		costs[s] = p.MemRefs
	}
	if costs[SchemeNested2D] < 10 {
		t.Errorf("cold 2D walk = %d refs, expected >= 10 (up to 24)", costs[SchemeNested2D])
	}
	if costs[SchemeNested2D] > 24 {
		t.Errorf("cold 2D walk = %d refs, architectural max is 24", costs[SchemeNested2D])
	}
	for _, s := range []Scheme{SchemeGuestDVM, SchemeHostDVM} {
		if costs[s] >= costs[SchemeNested2D] {
			t.Errorf("%v cold walk (%d) not cheaper than 2D (%d)", s, costs[s], costs[SchemeNested2D])
		}
	}
	if costs[SchemeFullDVM] > 4 {
		t.Errorf("full DVM cold walk = %d refs, want <= 4", costs[SchemeFullDVM])
	}
}

func TestMeasureOrdering(t *testing.T) {
	// Steady-state translation cost: 2D > one-dimensional variants >
	// full DVM (the paper: DVM "brings down the translation costs to
	// unvirtualized levels").
	res := map[Scheme]Result{}
	for _, s := range AllSchemes {
		r, err := Measure(s, Config{HeapBytes: 8 << 20}, 50_000, 7)
		if err != nil {
			t.Fatal(err)
		}
		res[s] = r
	}
	if !(res[SchemeNested2D].AvgCycles > res[SchemeGuestDVM].AvgCycles) {
		t.Errorf("2D (%.1f cy) not worse than guest DVM (%.1f cy)",
			res[SchemeNested2D].AvgCycles, res[SchemeGuestDVM].AvgCycles)
	}
	if !(res[SchemeNested2D].AvgCycles > res[SchemeHostDVM].AvgCycles) {
		t.Errorf("2D (%.1f cy) not worse than host DVM (%.1f cy)",
			res[SchemeNested2D].AvgCycles, res[SchemeHostDVM].AvgCycles)
	}
	if !(res[SchemeGuestDVM].AvgCycles > res[SchemeFullDVM].AvgCycles) {
		t.Errorf("guest DVM (%.1f cy) not worse than full DVM (%.1f cy)",
			res[SchemeGuestDVM].AvgCycles, res[SchemeFullDVM].AvgCycles)
	}
	if res[SchemeFullDVM].AvgMemRefs > 0.5 {
		t.Errorf("full DVM averages %.2f refs/access, want ~0", res[SchemeFullDVM].AvgMemRefs)
	}
}

func TestPermissionFaults(t *testing.T) {
	m := newMachine(t, SchemeNested2D)
	p := m.Translate(m.heapGVA, addr.Execute)
	if !p.Fault {
		t.Error("execute of RW data did not fault")
	}
	p = m.Translate(0xdead0000, addr.Read)
	if !p.Fault {
		t.Error("unmapped gVA did not fault")
	}
	if m.Counters().Faults != 2 {
		t.Errorf("faults = %d", m.Counters().Faults)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeNested2D: "Nested-2D", SchemeGuestDVM: "Guest-DVM",
		SchemeHostDVM: "Host-DVM", SchemeFullDVM: "Full-DVM",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestNestedTLBShortCircuits(t *testing.T) {
	m := newMachine(t, SchemeNested2D)
	first := m.Translate(m.heapGVA, addr.Read)
	second := m.Translate(m.heapGVA+64, addr.Read)
	if second.MemRefs != 0 {
		t.Errorf("TLB-hit access still walked: %+v", second)
	}
	if first.MemRefs == 0 {
		t.Error("cold access walked for free")
	}
}

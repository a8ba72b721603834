package pagetable

import (
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

// fuzzTable builds the real table every fuzz iteration starts from: the
// same shape the simulator builds for a small workload — dense 4K
// leaves, a huge leaf, and PE-covered identity regions.
func fuzzTable(tb testing.TB) *Table {
	t := MustNew(Config{})
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(t.MapRange(addr.VRange{Start: 0x1000, Size: 64 * addr.PageSize4K}, 0x1000, addr.ReadWrite, addr.PageSize4K))
	must(t.Map(0x4000_0000, 0x4000_0000, addr.ReadOnly, addr.PageSize2M))
	must(t.Map(0x4020_0000, 0x99a0_0000, addr.ReadWrite, addr.PageSize2M))
	perms := make([]addr.Perm, DefaultPEFields)
	for i := range perms {
		if i%3 == 0 {
			perms[i] = addr.NoPerm
		} else {
			perms[i] = addr.ReadWrite
		}
	}
	must(t.SetPE(0x6000_0000, 2, perms))
	must(t.SetPE(0x4000_0000_0000-1<<30, 3, perms))
	return t
}

// checkWalkSane asserts the walker's contract on an arbitrary (possibly
// corrupted) table: no panic (the fuzz engine catches those), and any
// successful outcome carries a well-formed translation — valid 2-bit
// permission, in-range PA, granule containing the probe. Faults must be
// typed.
func checkWalkSane(t *testing.T, tab *Table, probe addr.VA) {
	t.Helper()
	r := tab.Walk(probe)
	switch r.Outcome {
	case WalkFault:
		if r.Fault == FaultNone {
			t.Fatalf("Walk(%#x) faulted with FaultNone", uint64(probe))
		}
	case WalkLeaf, WalkPE:
		if r.Fault != FaultNone {
			t.Fatalf("Walk(%#x) succeeded but Fault=%v", uint64(probe), r.Fault)
		}
		if r.Perm == addr.NoPerm || r.Perm > addr.ReadExecute {
			t.Fatalf("Walk(%#x) returned invalid perm %#b", uint64(probe), uint8(r.Perm))
		}
		if uint64(r.PA) >= 1<<52 {
			t.Fatalf("Walk(%#x) returned out-of-space PA %#x", uint64(probe), uint64(r.PA))
		}
		if r.MapSize == 0 || uint64(probe) < uint64(r.MapBase) || uint64(probe) >= uint64(r.MapBase)+r.MapSize {
			t.Fatalf("Walk(%#x) granule [%#x,+%#x) does not contain probe", uint64(probe), uint64(r.MapBase), r.MapSize)
		}
		if r.Identity != (uint64(r.PA) == uint64(probe)) {
			t.Fatalf("Walk(%#x) Identity=%v but PA=%#x", uint64(probe), r.Identity, uint64(r.PA))
		}
	default:
		t.Fatalf("Walk(%#x) returned unknown outcome %d", uint64(probe), uint8(r.Outcome))
	}
	if len(r.Steps) > tab.Config().Levels {
		t.Fatalf("Walk(%#x) took %d steps in a %d-level table", uint64(probe), len(r.Steps), tab.Config().Levels)
	}
}

// FuzzWalkCorruption drives arbitrary byte-level corruption into a real
// table and asserts Walk/Lookup never panic, never loop, and never
// return a malformed translation.
func FuzzWalkCorruption(f *testing.F) {
	// Seed corpus: the corruption variants the unit tests pin, plus
	// benign raws, at every level and around every region of the table.
	seeds := []struct {
		va    uint64
		level uint8
		raw   uint64
		probe uint64
	}{
		{0x1000, 2, uint64(EntryTable), 0x1000},               // nil subtree
		{0x1000, 2, uint64(EntryTable) | 1<<3, 0x1000},        // cycle
		{0x1000, 3, uint64(EntryTable) | 2<<3, 0x2000},        // mis-leveled
		{0x1000, 1, 5, 0x1000},                                // unknown kind
		{0x1000, 1, uint64(EntryLeaf) | 5<<8 | 1<<12, 0x1000}, // bad leaf perm
		{0x1000, 1, uint64(EntryLeaf) | 1<<8 | 1<<57, 0x1000}, // wild PFN
		{0x6000_0000, 2, uint64(EntryPE) | 3<<3 | 0x2aa<<9, 0x6000_0000},
		{0x4000_0000, 2, uint64(EntryLeaf) | 1<<8 | 0x4000_0000>>9, 0x4000_0000},
		{0x2000, 1, uint64(EntryEmpty), 0x2000},
		{0x4000_0000_0000 - 1<<30, 3, uint64(EntryPE) | 16<<3 | 0x1249<<9, 0x4000_0000_0000 - 1<<30},
	}
	for _, s := range seeds {
		f.Add(s.va, s.level, s.raw, s.probe)
	}
	f.Fuzz(func(t *testing.T, va uint64, level uint8, raw uint64, probe uint64) {
		tab := fuzzTable(t)
		// CorruptEntry may reject the coordinates (no subtree there);
		// the walker contract must hold either way.
		_ = tab.CorruptEntry(addr.VA(va), int(level), raw)
		checkWalkSane(t, tab, addr.VA(probe))
		checkWalkSane(t, tab, addr.VA(va))
		for _, fixed := range []uint64{0x1000, 0x4000_0000, 0x6000_0000, 0xdead_0000_0000} {
			checkWalkSane(t, tab, addr.VA(fixed))
		}
	})
}

// FuzzPEPermDecode hammers the PE permission decode: arbitrary field
// counts and raw permission bits must either translate with a valid
// 2-bit permission or fault as badpe/unmapped — never panic, never
// leak invalid bits.
func FuzzPEPermDecode(f *testing.F) {
	f.Add(uint64(16), uint64(0x6666_6666), uint64(0x6000_0000))
	f.Add(uint64(0), uint64(0), uint64(0x6000_0000))
	f.Add(uint64(3), uint64(0xffff_ffff_ffff_ffff), uint64(0x6000_0000))
	f.Add(uint64(64), uint64(0x9249_2492_4924_9249), uint64(0x6000_1000))
	f.Add(uint64(16), uint64(0x4444_4444), uint64(0x603f_f000))
	f.Fuzz(func(t *testing.T, nfields, rawPerms, probe uint64) {
		tab := fuzzTable(t)
		// Install a PE with nfields fields (0-64) whose permission bits
		// come straight from rawPerms, 3 bits per field so invalid
		// values (>0b11) occur; bypass SetPE's validation the way a
		// corrupted table would.
		n := tab.Root()
		for n.Level > 2 {
			n = n.Entries[indexAt(0x6000_0000, n.Level)].Next
		}
		e := &n.Entries[indexAt(0x6000_0000, 2)]
		perms := make([]addr.Perm, nfields%65)
		for i := range perms {
			perms[i] = addr.Perm(rawPerms >> (3 * uint(i) % 63) & 0x7)
		}
		*e = Entry{Kind: EntryPE, PEPerms: perms}
		checkWalkSane(t, tab, addr.VA(probe))
		base := uint64(0x6000_0000)
		span := entrySpan(2)
		for off := uint64(0); off < span; off += span / 16 {
			checkWalkSane(t, tab, addr.VA(base+off))
		}
	})
}

package pagetable

import (
	"fmt"
	"io"
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

// checkReadersSane asserts the whole-table readers' contract on an
// arbitrary (possibly corrupted) table: SizeStats, Dump, Compacted and
// visit, the traversal ForEachPage expands into pages, all return an
// error or none does. Then, entry by entry, each leaf and PE field with
// a permission walks at its first and last 4 KB page, in the table and
// in its Compacted copy, to the PA and permission the entry gives, one
// without a permission faults, and SizeStats of both tables counts the
// pages the entries span. It checks entries, not pages, so an input
// stays cheap when a corruption leaves a 512 GB leaf; ForEachPage's
// expansion of entries into pages is compared page by page by the unit
// tests.
func checkReadersSane(t *testing.T, tab *Table) {
	t.Helper()
	stats, statsErr := tab.SizeStats()
	dumpErr := tab.Dump(io.Discard)
	compacted, compactErr := tab.Compacted()
	var npages, ident uint64
	var bad string
	var r WalkResult
	region := func(va addr.VA, pa addr.PA, size uint64, perm addr.Perm) {
		if perm != addr.NoPerm {
			npages += size / addr.PageSize4K
			if uint64(pa) == uint64(va) {
				ident += size / addr.PageSize4K
			}
		}
		if bad != "" || compacted == nil {
			return
		}
		for _, off := range []uint64{0, size - addr.PageSize4K} {
			for _, tbl := range []*Table{tab, compacted} {
				tbl.WalkInto(va+addr.VA(off), &r)
				if perm == addr.NoPerm && r.Outcome != WalkFault || perm != addr.NoPerm && (r.PA != pa+addr.PA(off) || r.Perm != perm) {
					bad = fmt.Sprintf("page %#x of a region at pa %#x with perm %v walks to %+v", uint64(va)+off, uint64(pa), perm, r)
				}
			}
		}
	}
	visitErr := tab.visit(tab.root, 0, func(n *Node, e Entry, base addr.VA) {
		span := entrySpan(n.Level)
		switch e.Kind() {
		case EntryLeaf:
			region(base, addr.PA(e.PFN()*span), span, e.Perm())
		case EntryPE:
			field := span / uint64(len(n.fields(e)))
			for fi, perm := range n.fields(e) {
				va := base + addr.VA(uint64(fi)*field)
				region(va, addr.PA(va), field, perm)
			}
		}
	})
	errs := []error{statsErr, visitErr, dumpErr, compactErr}
	for _, err := range errs[1:] {
		if (err == nil) != (statsErr == nil) {
			t.Fatalf("readers disagree on the table: SizeStats, visit, Dump, Compacted returned %v", errs)
		}
	}
	if statsErr != nil {
		return
	}
	if bad != "" {
		t.Fatalf("visit: %s", bad)
	}
	cs, err := compacted.SizeStats()
	if err != nil || stats.MappedPages != npages || stats.IdentityPages != ident || cs.MappedPages != npages || cs.IdentityPages != ident {
		t.Fatalf("the entries map %d pages (%d identity); SizeStats counts %d (%d identity), of the Compacted copy %d (%d identity, error %v)",
			npages, ident, stats.MappedPages, stats.IdentityPages, cs.MappedPages, cs.IdentityPages, err)
	}
}

// FuzzWalkCorruption drives arbitrary byte-level corruption into a real
// table and asserts Walk/Lookup never panic, never loop, and never
// return a malformed translation, and that every whole-table reader
// either rejects the table or reads what the walker reads.
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
		checkReadersSane(t, tab)
	})
}

// FuzzPEPermDecode hammers the PE permission decode: arbitrary field
// counts and raw permission bits must either translate with a valid
// 2-bit permission or fault as badpe/unmapped — never panic, never
// leak invalid bits, in a walk or in any whole-table reader.
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
		n, err := tab.nodeAt(0x6000_0000, 2)
		if err != nil {
			t.Fatal(err)
		}
		perms := make([]addr.Perm, nfields%65)
		for i := range perms {
			perms[i] = addr.Perm(rawPerms >> (3 * uint(i) % 63) & 0x7)
		}
		n.setPE(indexAt(0x6000_0000, 2), perms)
		checkWalkSane(t, tab, addr.VA(probe))
		base := uint64(0x6000_0000)
		span := entrySpan(2)
		for off := uint64(0); off < span; off += span / 16 {
			checkWalkSane(t, tab, addr.VA(base+off))
		}
		checkReadersSane(t, tab)
	})
}

// FuzzEntryWord checks the entry word layout. Every kind 0-7, every
// permission 0-15 and every payload below 2^52 must round-trip, and
// CorruptEntry must decode a raw word to the kind, permission, frame
// number and PE field count it gave when entries were structs.
func FuzzEntryWord(f *testing.F) {
	f.Add(uint8(EntryLeaf), uint8(addr.ReadWrite), uint64(1)<<52-1, uint64(EntryLeaf)|5<<8|1<<12, uint8(0))
	f.Add(uint8(7), uint8(15), uint64(0), uint64(5), uint8(0))
	f.Add(uint8(EntryTable), uint8(0), uint64(511), uint64(EntryTable)|1<<3, uint8(1))
	f.Add(uint8(EntryTable), uint8(0), uint64(3), uint64(EntryTable)|2<<3, uint8(2))
	f.Add(uint8(EntryTable), uint8(0), uint64(3), uint64(EntryTable)|3<<3, uint8(0))
	f.Add(uint8(EntryPE), uint8(0), uint64(9), uint64(EntryPE)|16<<3|0x249249<<9, uint8(1))
	f.Add(uint8(EntryLeaf), uint8(1), uint64(1)<<40, uint64(EntryLeaf)|1<<8|1<<57, uint8(3))
	f.Fuzz(func(t *testing.T, kind, perm uint8, payload, raw uint64, level uint8) {
		k, p, pl := EntryKind(kind&7), addr.Perm(perm&0xF), payload&(1<<52-1)
		if e := makeEntry(k, p, pl); e.Kind() != k || e.Perm() != p || e.PFN() != pl {
			t.Fatalf("makeEntry(%d, %d, %#x) decodes to (%d, %d, %#x)", k, p, pl, e.Kind(), e.Perm(), e.PFN())
		}

		// 0x1000 has a subtree at every level of fuzzTable.
		const va = addr.VA(0x1000)
		tab := fuzzTable(t)
		lvl := int(level%4) + 1
		n, err := tab.nodeAt(va, lvl)
		if err != nil {
			t.Fatal(err)
		}
		nextPA := tab.nextPA
		if err := tab.CorruptEntry(va, lvl, raw); err != nil {
			t.Fatal(err)
		}
		e := n.entry(indexAt(va, lvl))
		if e.Kind() != EntryKind(raw&7) {
			t.Fatalf("raw %#x: kind %d, want raw&7 = %d", raw, e.Kind(), raw&7)
		}
		// The struct rules: a leaf takes its 4 permission bits from raw
		// bits 8-11 and its frame number from bits 12-63; every other
		// kind has permission 0; empty and unknown kinds hold nothing.
		switch e.Kind() {
		case EntryLeaf:
			if e.Perm() != addr.Perm(raw>>8&0xF) || e.PFN() != raw>>12 {
				t.Fatalf("raw %#x: leaf perm %d pfn %#x, want %d %#x", raw, e.Perm(), e.PFN(), raw>>8&0xF, raw>>12)
			}
		case EntryTable:
			// Bits 3-4 choose the link: none, the node itself, a
			// same-level node at the same PA, or a fresh empty child
			// one level down (none at level 1).
			child := n.kids[e.slot()]
			var ok bool
			switch raw >> 3 & 3 {
			case 0:
				ok = child == nil
			case 1:
				ok = child == n
			case 2:
				ok = child != nil && child != n && child.Level == n.Level && child.PA == n.PA
			case 3:
				if n.Level < 2 {
					ok = child == nil
				} else {
					ok = child != nil && child.Level == n.Level-1 && uint64(child.PA) == nextPA && nodeIsEmpty(child)
				}
			}
			if !ok || e.Perm() != addr.NoPerm {
				t.Fatalf("raw %#x at level %d: table link %p (perm %d) breaks variant %d", raw, n.Level, child, e.Perm(), raw>>3&3)
			}
		case EntryPE:
			// Bits 3-8 give the field count; field fi is the 3 bits of
			// raw at 9 + fi%48.
			perms := n.fields(e)
			if len(perms) != int(raw>>3&0x3F) || e.Perm() != addr.NoPerm {
				t.Fatalf("raw %#x: PE with %d fields (perm %d), want %d", raw, len(perms), e.Perm(), raw>>3&0x3F)
			}
			for fi, got := range perms {
				if want := addr.Perm(raw >> (9 + uint(fi)%48) & 0x7); got != want {
					t.Fatalf("raw %#x: PE field %d = %d, want %d", raw, fi, got, want)
				}
			}
		default:
			if e != Entry(raw&7) {
				t.Fatalf("raw %#x: %v entry word %#x, want %#x", raw, e.Kind(), uint64(e), raw&7)
			}
		}
	})
}

// nodeIsEmpty reports whether every entry of n is empty.
func nodeIsEmpty(n *Node) bool {
	for i := 0; i < EntriesPerNode; i++ {
		if n.entry(i) != 0 {
			return false
		}
	}
	return true
}

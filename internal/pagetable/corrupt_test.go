package pagetable

import (
	"reflect"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

// corruptTestTable builds a small but representative table: 4K leaves,
// a 2M leaf, and a level-2 PE region — every entry kind the walker can
// meet.
func corruptTestTable(t *testing.T) *Table {
	t.Helper()
	tb := MustNew(Config{})
	if err := tb.MapRange(addr.VRange{Start: 0x1000, Size: 16 * addr.PageSize4K}, 0x1000, addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x4000_0000, 0x4000_0000, addr.ReadOnly, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	perms := make([]addr.Perm, DefaultPEFields)
	for i := range perms {
		perms[i] = addr.ReadWrite
	}
	if err := tb.SetPE(0x6000_0000, 2, perms); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestChaosWalkerCorruptionTyped(t *testing.T) {
	cases := []struct {
		name  string
		va    addr.VA
		level int
		raw   uint64
		probe addr.VA
		want  FaultKind
	}{
		// EntryTable with nil Next: variant bits 00.
		{"nil-subtree", 0x1000, 2, uint64(EntryTable), 0x1000, FaultCorrupt},
		// Self-linked table entry: a cycle the walker must not follow
		// forever. Variant bits 01.
		{"cycle", 0x1000, 2, uint64(EntryTable) | 1<<3, 0x1000, FaultCorrupt},
		// Cross-link to a same-level node: variant bits 10.
		{"mis-leveled", 0x1000, 3, uint64(EntryTable) | 2<<3, 0x1000, FaultCorrupt},
		// Unknown entry kind (5 is not a valid EntryKind).
		{"unknown-kind", 0x1000, 1, 5, 0x1000, FaultCorrupt},
		// Leaf whose permission has bits outside the 2-bit encoding
		// (perm nibble 0b0101).
		{"leaf-bad-perm", 0x1000, 1, uint64(EntryLeaf) | 5<<8 | 1<<12, 0x1000, FaultCorrupt},
		// Leaf whose PFN (2^45 4K frames = 2^57 bytes) is beyond the
		// 52-bit physical space.
		{"leaf-wild-pfn", 0x1000, 1, uint64(EntryLeaf) | 1<<8 | 1<<57, 0x1000, FaultCorrupt},
		// PE with the wrong number of permission fields (3 != 16).
		{"pe-bad-fields", 0x1000, 2, uint64(EntryPE) | 3<<3 | 0x2aa<<9, 0x1000, FaultBadPE},
		// PE at level 1, where PEs are architecturally invalid.
		{"pe-at-leaf-level", 0x1000, 1, uint64(EntryPE) | 16<<3 | 0x249249<<9, 0x1000, FaultBadPE},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := corruptTestTable(t)
			if err := tb.CorruptEntry(c.va, c.level, c.raw); err != nil {
				t.Fatalf("CorruptEntry: %v", err)
			}
			r := tb.Walk(c.probe)
			if r.Outcome != WalkFault {
				t.Fatalf("Walk(%#x) after %s = %v (pa %#x), want fault", uint64(c.probe), c.name, r.Outcome, uint64(r.PA))
			}
			if r.Fault != c.want {
				t.Fatalf("Walk(%#x) fault kind = %v, want %v", uint64(c.probe), r.Fault, c.want)
			}
			if _, _, ok := tb.Lookup(c.probe); ok {
				t.Fatal("Lookup succeeded on a corrupted translation")
			}
		})
	}
}

// TestChaosReadersRejectCorruption: after each corruption the walker
// faults on, every whole-table reader returns an error, and none panics
// or loops. Cycles through the table must not recurse forever, PEs of
// the wrong shape must not be indexed, and invalid leaves and PE fields
// must not be reported as pages.
func TestChaosReadersRejectCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(tb *Table) error
	}{
		{"nil-link", corruptAt(0x1000, 2, uint64(EntryTable))},
		{"self-link", corruptAt(0x1000, 2, uint64(EntryTable)|1<<3)},
		{"mis-leveled-link", corruptAt(0x1000, 3, uint64(EntryTable)|2<<3)},
		// A level-2 entry linking back up to the root: a cycle through
		// three levels.
		{"cross-link", func(tb *Table) error {
			n, err := tb.nodeAt(0x1000, 2)
			if err == nil {
				n.setTable(indexAt(0x1000, 2), tb.root)
			}
			return err
		}},
		{"pe-0-fields", corruptAt(0x6000_0000, 2, uint64(EntryPE))},
		{"pe-3-fields", corruptAt(0x6000_0000, 2, uint64(EntryPE)|3<<3|0x2aa<<9)},
		{"pe-field-perm-5", func(tb *Table) error {
			n, err := tb.nodeAt(0x6000_0000, 2)
			if err == nil {
				n.fields(n.entry(indexAt(0x6000_0000, 2)))[4] = addr.Perm(5)
			}
			return err
		}},
		{"leaf-perm-5", corruptAt(0x1000, 1, uint64(EntryLeaf)|5<<8|1<<12)},
		{"leaf-wild-pfn", corruptAt(0x1000, 1, uint64(EntryLeaf)|1<<8|1<<57)},
		{"unknown-kind", corruptAt(0x4000_0000, 2, 5)},
	}
	readers := []struct {
		name string
		read func(t *testing.T, tb *Table) error
	}{
		{"SizeStats", func(_ *testing.T, tb *Table) error { _, err := tb.SizeStats(); return err }},
		{"ForEachPage", func(_ *testing.T, tb *Table) error { return tb.ForEachPage(func(addr.VA, addr.PA, addr.Perm) {}) }},
		{"Dump", func(t *testing.T, tb *Table) error {
			var b strings.Builder
			err := tb.Dump(&b)
			if err != nil && b.Len() != 0 {
				t.Errorf("Dump wrote %d bytes before failing", b.Len())
			}
			return err
		}},
		{"Compacted", func(_ *testing.T, tb *Table) error { _, err := tb.Compacted(); return err }},
	}
	for _, c := range cases {
		tb := corruptTestTable(t)
		for _, r := range readers {
			if err := r.read(t, tb); err != nil {
				t.Fatalf("%s on the intact table: %v", r.name, err)
			}
		}
		if err := c.corrupt(tb); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, r := range readers {
			t.Run(c.name+"/"+r.name, func(t *testing.T) {
				if err := r.read(t, tb); err == nil {
					t.Errorf("%s read a table with a %s", r.name, c.name)
				}
			})
		}
	}
}

// corruptAt returns a corruption that overwrites the entry covering va
// at level with CorruptEntry's decoding of raw.
func corruptAt(va addr.VA, level int, raw uint64) func(*Table) error {
	return func(tb *Table) error { return tb.CorruptEntry(va, level, raw) }
}

// A PE whose field count is right but whose permission bits are outside
// the 2-bit domain must fault as FaultBadPE, not decode to a bogus
// permission.
func TestChaosPEPermBitsRejected(t *testing.T) {
	tb := corruptTestTable(t)
	peVA := addr.VA(0x6000_0000)
	n, err := tb.nodeAt(peVA, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := n.entry(indexAt(peVA, 2))
	if e.Kind() != EntryPE {
		t.Fatalf("expected PE at level 2, got %v", e.Kind())
	}
	n.fields(e)[4] = addr.Perm(0b101)
	span := entrySpan(2)
	field := span / uint64(tb.Config().PEFields)
	r := tb.Walk(peVA + addr.VA(4*field))
	if r.Outcome != WalkFault || r.Fault != FaultBadPE {
		t.Fatalf("walk over invalid PE perm = %v/%v, want fault/badpe", r.Outcome, r.Fault)
	}
	// Neighbouring fields with valid bits still translate.
	if r := tb.Walk(peVA); r.Outcome != WalkPE || r.Fault != FaultNone {
		t.Fatalf("walk over intact PE field = %v/%v, want pe/none", r.Outcome, r.Fault)
	}
}

// Corruption is local: entries the corruption did not touch keep
// translating exactly as before.
func TestChaosCorruptionIsLocal(t *testing.T) {
	tb := corruptTestTable(t)
	before := tb.Walk(0x4000_0000)
	if before.Outcome != WalkLeaf {
		t.Fatalf("2M leaf did not translate: %v", before.Outcome)
	}
	if err := tb.CorruptEntry(0x1000, 1, 5); err != nil {
		t.Fatal(err)
	}
	after := tb.Walk(0x4000_0000)
	if after.Outcome != before.Outcome || after.PA != before.PA || after.Perm != before.Perm {
		t.Fatalf("corruption of %#x leaked into %#x: %+v vs %+v", 0x1000, 0x4000_0000, after, before)
	}
}

// Healthy-table walks report FaultNone; ordinary unmapped VAs report
// FaultUnmapped — the two kinds existing callers rely on.
func TestWalkFaultKindBaseline(t *testing.T) {
	tb := corruptTestTable(t)
	if r := tb.Walk(0x1000); r.Outcome != WalkLeaf || r.Fault != FaultNone {
		t.Fatalf("mapped walk = %v/%v", r.Outcome, r.Fault)
	}
	if r := tb.Walk(0xdead_0000_0000); r.Outcome != WalkFault || r.Fault != FaultUnmapped {
		t.Fatalf("unmapped walk = %v/%v, want fault/unmapped", r.Outcome, r.Fault)
	}
}

// Map, MapRange and SetPE stop at an entry of unknown kind, or at a
// table link with no subtree, a cyclic one or one to a node of the wrong
// level, with an error rather than descending through it, and leave the
// table as it was.
func TestChaosMutateOverUnknownKind(t *testing.T) {
	probes := []addr.VA{0x1000, 0x2000, 0x4000_0000, 0x6000_0000, 0x8000_0000}
	// Unknown kind; truncated, self- and cross-linked table entries.
	for _, raw := range []uint64{5, uint64(EntryTable), uint64(EntryTable) | 1<<3, uint64(EntryTable) | 2<<3} {
		tb := corruptTestTable(t)
		if err := tb.CorruptEntry(0x1000, 2, raw); err != nil {
			t.Fatal(err)
		}
		if err := tb.CorruptEntry(0x8000_0000, 3, raw); err != nil {
			t.Fatal(err)
		}
		walks := func() []WalkResult {
			var w []WalkResult
			for _, va := range probes {
				w = append(w, tb.Walk(va))
			}
			return w
		}
		before, nextPA := walks(), tb.nextPA
		if err := tb.Map(0x2000, 0x2000, addr.ReadOnly, addr.PageSize4K); err == nil {
			t.Errorf("raw %#x: Map below a corrupt entry succeeded", raw)
		}
		if err := tb.MapRange(addr.VRange{Start: 0x2000, Size: 2 * addr.PageSize4K}, 0x2000, addr.ReadOnly, addr.PageSize4K); err == nil {
			t.Errorf("raw %#x: MapRange below a corrupt entry succeeded", raw)
		}
		if err := tb.SetPE(0x8000_0000, 2, make([]addr.Perm, DefaultPEFields)); err == nil {
			t.Errorf("raw %#x: SetPE below a corrupt entry succeeded", raw)
		}
		if tb.nextPA != nextPA || !reflect.DeepEqual(walks(), before) {
			t.Errorf("raw %#x: rejected mutations changed the table", raw)
		}
	}
}

package pagetable

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
)

// SetPE installs a Permission Entry directly at the entry covering va at
// the given level, replacing whatever was there. perms must have PEFields
// elements. va must be aligned to the entry span of that level. The
// walker's tests and fuzz targets build their fixtures with it; a built
// table is only ever compacted, so production code never installs a PE
// by hand.
func (t *Table) SetPE(va addr.VA, level int, perms []addr.Perm) error {
	if level < 2 || level > t.cfg.Levels {
		return fmt.Errorf("pagetable: PE level %d out of range", level)
	}
	if len(perms) != t.cfg.PEFields {
		return fmt.Errorf("pagetable: PE needs %d fields, got %d", t.cfg.PEFields, len(perms))
	}
	if !addr.IsAligned(uint64(va), entrySpan(level)) {
		return fmt.Errorf("pagetable: va %#x not aligned to level-%d span", uint64(va), level)
	}
	n, err := t.descendFor(va, level)
	if err != nil {
		return err
	}
	n.setPE(indexAt(va, level), append([]addr.Perm(nil), perms...))
	return nil
}

// CorruptEntry overwrites the entry covering va at the given level with
// an arbitrary — possibly structurally invalid — entry decoded from
// raw, following existing EntryTable links only (it never creates
// interior nodes, so it can only damage what exists). It is the
// byte-level corruption primitive used by the chaos tests and fuzz
// targets: the low bits of raw select the (possibly out-of-range)
// entry kind and the corruption variant, the high bits supply frame
// numbers and permission bits verbatim. The walker must turn whatever
// this installs into a typed fault, never a panic or mistranslation.
//
// Tables handed to CorruptEntry must be privately owned: the simulator
// shares prepared tables across runs and those must never be mutated.
func (t *Table) CorruptEntry(va addr.VA, level int, raw uint64) error {
	if level < 1 || level > t.cfg.Levels {
		return fmt.Errorf("pagetable: corrupt level %d out of range", level)
	}
	n, err := t.nodeAt(va, level)
	if err != nil {
		return err
	}
	i := indexAt(va, level)
	switch kind := EntryKind(raw & 7); kind { // kinds 4-7 do not exist: unknown-kind corruption
	case EntryTable:
		var next *Node // nil subtree pointer (truncated table)
		switch (raw >> 3) & 3 {
		case 1:
			next = n // self-link: a cycle
		case 2:
			next = &Node{Level: n.Level, PA: n.PA} // mis-leveled cross-link
		case 3:
			if n.Level >= 2 {
				next = t.newNode(n.Level - 1) // valid but empty subtree
			}
		}
		n.setTable(i, next)
	case EntryLeaf:
		// 4 permission bits: half the values are invalid.
		n.set(i, makeEntry(EntryLeaf, addr.Perm(raw>>8&0xF), raw>>12))
	case EntryPE:
		perms := make([]addr.Perm, raw>>3&0x3F) // field count 0-63: usually != PEFields
		for fi := range perms {
			perms[fi] = addr.Perm(raw >> (9 + uint(fi)%48) & 0x7)
		}
		n.setPE(i, perms)
	default:
		n.set(i, makeEntry(kind, addr.NoPerm, 0))
	}
	return nil
}

// nodeAt returns the node at level whose entries cover va, descending
// from the root through valid links only; it never creates a node.
func (t *Table) nodeAt(va addr.VA, level int) (*Node, error) {
	n := t.root
	for n.Level > level {
		next := n.link(n.entry(indexAt(va, n.Level)))
		if next == nil {
			return nil, fmt.Errorf("pagetable: no subtree at level %d for %#x", n.Level, uint64(va))
		}
		n = next
	}
	return n, nil
}

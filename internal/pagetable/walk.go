package pagetable

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/dvm-sim/dvm/internal/addr"
)

// WalkOutcome classifies how a page walk terminated.
type WalkOutcome uint8

// Walk outcomes.
const (
	// WalkFault: no mapping (empty entry, or PE field / leaf with no
	// permission). The OS must handle the fault.
	WalkFault WalkOutcome = iota
	// WalkLeaf: the walk ended at a conventional leaf PTE; the entry's
	// PFN provides the translation.
	WalkLeaf
	// WalkPE: the walk ended at a Permission Entry; the access is
	// identity mapped (PA == VA) and the field provides the permission.
	WalkPE
)

// String implements fmt.Stringer.
func (o WalkOutcome) String() string {
	switch o {
	case WalkFault:
		return "fault"
	case WalkLeaf:
		return "leaf"
	case WalkPE:
		return "pe"
	default:
		return fmt.Sprintf("WalkOutcome(%d)", uint8(o))
	}
}

// FaultKind refines a WalkFault outcome. The walker never panics and
// never silently mistranslates: structurally invalid tables (whether
// from fault injection or a harness bug) surface as typed faults that
// the MMU models raise on the simulated host.
type FaultKind uint8

// Fault kinds.
const (
	// FaultNone: the walk did not fault.
	FaultNone FaultKind = iota
	// FaultUnmapped: an ordinary page fault — empty entry or a
	// no-permission leaf/PE field. The OS can handle it.
	FaultUnmapped
	// FaultCorrupt: the table is structurally invalid at the faulting
	// entry — unknown entry kind, nil or mis-leveled subtree pointer
	// (covers cycles), out-of-range frame number, or invalid leaf
	// permission bits.
	FaultCorrupt
	// FaultBadPE: a Permission Entry is malformed — wrong field count,
	// PE at the leaf level, or permission bits outside the 2-bit
	// encoding.
	FaultBadPE
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnmapped:
		return "unmapped"
	case FaultCorrupt:
		return "corrupt"
	case FaultBadPE:
		return "badpe"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// WalkStep records one page-table entry access performed by the hardware
// walker, from the root downward. The MMU timing models use EntryPA to
// decide PWC/AVC hits versus memory references.
type WalkStep struct {
	// Level of the node whose entry was read (root = Config().Levels).
	Level int
	// EntryPA is the simulated physical address of the entry word.
	EntryPA addr.PA
	// Kind of the entry found.
	Kind EntryKind
}

// WalkResult is the full result of a page walk.
type WalkResult struct {
	// Steps, in root-to-leaf order. Reused across walks when the result
	// struct is reused; do not retain across calls.
	Steps []WalkStep
	// Outcome of the walk.
	Outcome WalkOutcome
	// Fault refines a WalkFault outcome (FaultNone otherwise).
	Fault FaultKind
	// PA is the translated physical address (valid unless Outcome is
	// WalkFault). For WalkPE it equals the virtual address.
	PA addr.PA
	// Perm is the permission found (valid unless WalkFault).
	Perm addr.Perm
	// Identity reports PA == VA.
	Identity bool
	// MapBase and MapSize describe the VA granule the terminal entry
	// covers: the page for WalkLeaf, the PE field's region for WalkPE.
	// TLBs insert translations at this granularity.
	MapBase addr.VA
	MapSize uint64
}

// Walk performs a page walk for va, allocating a fresh result.
func (t *Table) Walk(va addr.VA) WalkResult {
	var r WalkResult
	t.WalkInto(va, &r)
	return r
}

// WalkInto performs a page walk for va into res, reusing res.Steps. This is
// the allocation-free path used on the simulator's hot loop.
func (t *Table) WalkInto(va addr.VA, res *WalkResult) { t.walk(va, res, true) }

// walk is WalkInto, recording the steps only if steps is set. Appending
// to res.Steps makes the compiler treat everything res points to as
// escaping, so Lookup, which needs no steps, walks without them to
// allocate nothing.
func (t *Table) walk(va addr.VA, res *WalkResult, steps bool) {
	res.Steps = res.Steps[:0]
	res.Outcome = WalkFault
	res.Fault = FaultUnmapped
	res.PA = 0
	res.Perm = addr.NoPerm
	res.Identity = false
	res.MapBase = 0
	res.MapSize = 0

	n := t.root
	for {
		i := indexAt(va, n.Level)
		e := n.entry(i)
		if steps {
			res.Steps = append(res.Steps, WalkStep{Level: n.Level, EntryPA: n.EntryPA(i), Kind: e.Kind()})
		}
		switch e.Kind() {
		case EntryEmpty:
			return
		case EntryTable:
			next := n.link(e)
			if next == nil {
				res.Fault = FaultCorrupt
				return
			}
			n = next
			continue
		case EntryLeaf:
			// Spans are powers of two, so the frame bound, the frame's
			// base and the offset are shifts and masks.
			shift := levelShift(n.Level)
			if !leafValid(e, shift) {
				res.Fault = FaultCorrupt
				return
			}
			off := uint64(va) & (uint64(1)<<shift - 1)
			perm := e.Perm()
			pa := addr.PA(e.PFN()<<shift + off)
			if perm == addr.NoPerm {
				return
			}
			res.Outcome = WalkLeaf
			res.Fault = FaultNone
			res.PA = pa
			res.Perm = perm
			res.Identity = uint64(pa) == uint64(va)
			res.MapBase = va - addr.VA(off)
			res.MapSize = uint64(1) << shift
			return
		case EntryPE:
			perms := n.fields(e)
			if !t.peShapeValid(n.Level, perms) {
				res.Fault = FaultBadPE
				return
			}
			// PEFields divides 512, so it is a power of two and each
			// field spans 2^fieldShift bytes of the entry's span.
			shift := levelShift(n.Level)
			fieldShift := shift - uint(bits.TrailingZeros(uint(t.cfg.PEFields)))
			fi := (uint64(va) & (uint64(1)<<shift - 1)) >> fieldShift
			perm := perms[fi]
			if perm > addr.ReadExecute {
				res.Fault = FaultBadPE
				return
			}
			if perm == addr.NoPerm {
				return
			}
			res.Outcome = WalkPE
			res.Fault = FaultNone
			res.PA = addr.PA(va)
			res.Perm = perm
			res.Identity = true
			res.MapSize = uint64(1) << fieldShift
			res.MapBase = va &^ addr.VA(res.MapSize-1)
			return
		default:
			res.Fault = FaultCorrupt
			return
		}
	}
}

// Lookup resolves va to (pa, perm). ok is false if va is unmapped.
func (t *Table) Lookup(va addr.VA) (pa addr.PA, perm addr.Perm, ok bool) {
	var r WalkResult
	t.walk(va, &r, false)
	if r.Outcome == WalkFault {
		return 0, addr.NoPerm, false
	}
	return r.PA, r.Perm, true
}

// maxPA bounds leaf frame numbers to the x86-64 architectural 52-bit
// physical space; anything above is corruption, and trusting it would
// wrap the PA arithmetic into a silent mistranslation.
const maxPA = uint64(1) << 52

// leafValid reports whether the leaf word e, at a level whose pages are
// 2^shift bytes, has valid permission bits and a frame number inside
// the physical space. The walker faults any other leaf as corrupt.
func leafValid(e Entry, shift uint) bool {
	return e.Perm() <= addr.ReadExecute && e.PFN() < maxPA>>shift
}

// peShapeValid reports whether a PE at level with the fields perms has
// the shape the walker decodes: level 2 or above, PEFields fields.
func (t *Table) peShapeValid(level int, perms []addr.Perm) bool {
	return level >= 2 && len(perms) == t.cfg.PEFields
}

// valid reports whether entry e of n is one the walker translates
// through without a corrupt or bad-PE fault: an empty entry, a link
// that passes link, a valid leaf, or a well-shaped PE whose every field
// is a valid permission. The walker checks only the field it reads, so
// it still translates the other fields of a PE with one invalid field;
// the whole-table readers, which report every field, reject it.
func (t *Table) valid(n *Node, e Entry) bool {
	switch e.Kind() {
	case EntryEmpty:
		return true
	case EntryTable:
		return n.link(e) != nil
	case EntryLeaf:
		return leafValid(e, levelShift(n.Level))
	case EntryPE:
		perms := n.fields(e)
		return t.peShapeValid(n.Level, perms) && !slices.ContainsFunc(perms, func(p addr.Perm) bool { return p > addr.ReadExecute })
	}
	return false
}

// errInvalid is the error for an entry valid rejects, whose range starts
// at va.
func errInvalid(va addr.VA, level int, e Entry) error {
	return fmt.Errorf("pagetable: %#x: invalid level-%d %v entry %#x", uint64(va), level, e.Kind(), uint64(e))
}

// visit is the one traversal every whole-table reader shares, over the
// subtree n whose base VA is base (t.root and 0 for the whole table). It
// calls fn for each non-empty entry in ascending VA order, with the node
// holding it and the base VA of the range it maps: a table entry just
// before the entries of its subtree. It descends only through links that
// pass link, and stops at the first entry valid rejects with that
// entry's error, once fn has seen every entry before it. A run-state
// page's entries outside its run are empty and are not read.
func (t *Table) visit(n *Node, base addr.VA, fn func(n *Node, e Entry, base addr.VA)) error {
	lo, hi := 0, EntriesPerNode
	if n.words == nil {
		lo, hi = int(n.lo), int(n.hi)
	}
	span := entrySpan(n.Level)
	for i := lo; i < hi; i++ {
		e, eBase := n.entry(i), base+addr.VA(uint64(i)*span)
		if !t.valid(n, e) {
			return errInvalid(eBase, n.Level, e)
		}
		if e.Kind() == EntryEmpty {
			continue
		}
		fn(n, e, eBase)
		if e.Kind() == EntryTable {
			if err := t.visit(n.link(e), eBase, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// regions calls fn for each region the leaf or PE entry e of n maps,
// with its base VA (the entry's is base), base PA, size and permission:
// the leaf's whole span, or each PE field with a permission. A
// no-permission leaf or field maps nothing.
func (t *Table) regions(n *Node, e Entry, base addr.VA, fn func(va addr.VA, pa addr.PA, size uint64, perm addr.Perm)) {
	span := entrySpan(n.Level)
	switch e.Kind() {
	case EntryLeaf:
		if e.Perm() != addr.NoPerm {
			fn(base, addr.PA(e.PFN()*span), span, e.Perm())
		}
	case EntryPE:
		field := span / uint64(t.cfg.PEFields)
		for fi, perm := range n.fields(e) {
			if fBase := base + addr.VA(uint64(fi)*field); perm != addr.NoPerm {
				fn(fBase, addr.PA(fBase), field, perm)
			}
		}
	}
}

// ForEachPage invokes fn for every mapped 4 KB page, in ascending VA
// order, with the page's base VA, its translated base PA and its
// permission, expanding huge leaves and PE fields to page granularity.
// It is how a table's contents are copied into a table of another shape
// (core derives its non-default PE fan-outs this way) and how tests
// compare tables page by page. At an entry the walker would fault as
// corrupt or as a bad PE it stops and returns an error; fn has then seen
// the pages before that entry.
func (t *Table) ForEachPage(fn func(va addr.VA, pa addr.PA, perm addr.Perm)) error {
	return t.visit(t.root, 0, func(n *Node, e Entry, base addr.VA) {
		t.regions(n, e, base, func(va addr.VA, pa addr.PA, size uint64, perm addr.Perm) {
			for off := uint64(0); off < size; off += addr.PageSize4K {
				fn(va+addr.VA(off), pa+addr.PA(off), perm)
			}
		})
	})
}

// SizeStats summarizes a page table's memory footprint — the quantities
// behind the paper's Table 1.
type SizeStats struct {
	// Nodes is the total number of page-table pages.
	Nodes int
	// Bytes is Nodes * 4 KB: the table's physical footprint.
	Bytes uint64
	// NodesPerLevel[l] is the number of page-table pages whose entries
	// are at level l (1..5).
	NodesPerLevel [6]int
	// L1Fraction is the fraction of Bytes occupied by level-1 (leaf)
	// page-table pages — ~98% for conventional big-heap tables, which is
	// why PEs shrink tables so dramatically.
	L1Fraction float64
	// PECount is the number of Permission Entries in the table.
	PECount int
	// LeafCount is the number of conventional leaf PTEs (any level).
	LeafCount int
	// MappedPages is the number of mapped 4 KB-page-equivalents.
	MappedPages uint64
	// IdentityPages is how many of MappedPages are identity mapped.
	IdentityPages uint64
}

// SizeStats computes the current footprint statistics by traversing the
// table. It returns an error at an entry the walker would fault as
// corrupt or as a bad PE.
func (t *Table) SizeStats() (SizeStats, error) {
	s := SizeStats{Nodes: 1}
	s.NodesPerLevel[t.root.Level] = 1
	err := t.visit(t.root, 0, func(n *Node, e Entry, base addr.VA) {
		switch e.Kind() {
		case EntryTable:
			s.Nodes++
			s.NodesPerLevel[n.Level-1]++
		case EntryLeaf:
			if e.Perm() != addr.NoPerm {
				s.LeafCount++
			}
		case EntryPE:
			s.PECount++
		}
		t.regions(n, e, base, func(va addr.VA, pa addr.PA, size uint64, _ addr.Perm) {
			s.MappedPages += size / addr.PageSize4K
			if uint64(pa) == uint64(va) {
				s.IdentityPages += size / addr.PageSize4K
			}
		})
	})
	if err != nil {
		return SizeStats{}, err
	}
	s.Bytes = uint64(s.Nodes) * NodeBytes
	s.L1Fraction = float64(s.NodesPerLevel[1]) * NodeBytes / float64(s.Bytes)
	return s, nil
}

package pagetable

import (
	"fmt"
	"math/bits"

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

	// maxPA bounds leaf frame numbers to the x86-64 architectural
	// 52-bit physical space; anything above is corruption, and trusting
	// it would wrap the PA arithmetic into a silent mistranslation.
	const maxPA = uint64(1) << 52

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
			// A structurally valid child exists and sits exactly one
			// level down. Anything else — no child, self-link,
			// cross-link, or a "table" below the last level — is
			// corruption; the level check also bounds the walk to
			// Levels steps, so a cyclic table cannot hang the walker.
			next := n.child(e)
			if n.Level <= 1 || next == nil || next.Level != n.Level-1 {
				res.Fault = FaultCorrupt
				return
			}
			n = next
			continue
		case EntryLeaf:
			// Spans are powers of two, so the frame bound, the frame's
			// base and the offset are shifts and masks.
			shift := levelShift(n.Level)
			off := uint64(va) & (uint64(1)<<shift - 1)
			perm, pfn := e.Perm(), e.PFN()
			if perm > addr.ReadExecute || pfn >= maxPA>>shift {
				res.Fault = FaultCorrupt
				return
			}
			pa := addr.PA(pfn<<shift + off)
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
			if n.Level < 2 || len(perms) != t.cfg.PEFields {
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

// ForEachPage invokes fn for every mapped 4 KB page, in ascending VA order,
// with the page's base VA, its translated base PA and its permission. It is
// intended for tests and debugging; it expands huge leaves and PE fields to
// page granularity.
func (t *Table) ForEachPage(fn func(va addr.VA, pa addr.PA, perm addr.Perm)) {
	t.forEachPage(t.root, 0, fn)
}

func (t *Table) forEachPage(n *Node, base addr.VA, fn func(addr.VA, addr.PA, addr.Perm)) {
	span := entrySpan(n.Level)
	for i := 0; i < EntriesPerNode; i++ {
		e := n.entry(i)
		eBase := base + addr.VA(uint64(i)*span)
		switch e.Kind() {
		case EntryTable:
			t.forEachPage(n.child(e), eBase, fn)
		case EntryLeaf:
			if e.Perm() == addr.NoPerm {
				continue
			}
			for off := uint64(0); off < span; off += addr.PageSize4K {
				fn(eBase+addr.VA(off), addr.PA(e.PFN()*span+off), e.Perm())
			}
		case EntryPE:
			field := span / uint64(t.cfg.PEFields)
			for fi, perm := range n.fields(e) {
				if perm == addr.NoPerm {
					continue
				}
				fBase := eBase + addr.VA(uint64(fi)*field)
				for off := uint64(0); off < field; off += addr.PageSize4K {
					fn(fBase+addr.VA(off), addr.PA(fBase+addr.VA(off)), perm)
				}
			}
		}
	}
}

// Package addr defines the primitive address-space types shared by every
// subsystem of the DVM simulation: virtual and physical addresses, page
// sizes, alignment helpers, address ranges and the paper's 2-bit permission
// encoding.
//
// The paper ("Devirtualizing Memory in Heterogeneous Systems", ASPLOS'18)
// models a standard x86-64 address space: 4 KB base pages, 2 MB and 1 GB
// huge pages, 48-bit canonical virtual addresses and a 4-level page table.
// All of those constants live here so the page-table, MMU and OS packages
// agree on them.
package addr

import "fmt"

// VA is a virtual address. In DVM most virtual addresses are identity
// mapped, i.e. numerically equal to the backing physical address.
type VA uint64

// PA is a physical address.
type PA uint64

// Page sizes supported by the simulated x86-64 hierarchy.
const (
	// PageSize4K is the base page size (level-1 leaf).
	PageSize4K uint64 = 4 << 10
	// PageSize2M is the level-2 huge-page size.
	PageSize2M uint64 = 2 << 20
	// PageSize1G is the level-3 huge-page size.
	PageSize1G uint64 = 1 << 30

	// PageShift4K is log2(PageSize4K).
	PageShift4K = 12
	// PageShift2M is log2(PageSize2M).
	PageShift2M = 21
	// PageShift1G is log2(PageSize1G).
	PageShift1G = 30
)

// VABits is the number of significant bits in a canonical 4-level x86-64
// virtual address.
const VABits = 48

// MaxVA is one past the largest representable canonical virtual address in
// the lower half of the address space.
const MaxVA VA = 1 << VABits

// Perm is the paper's 2-bit permission encoding (Section 4.1):
//
//	00 NoPerm, 01 Read-Only, 10 Read-Write, 11 Read-Execute.
type Perm uint8

// Permission values. The encoding is exactly the paper's.
const (
	NoPerm      Perm = 0b00 // no permission / unallocated
	ReadOnly    Perm = 0b01 // read-only
	ReadWrite   Perm = 0b10 // read-write
	ReadExecute Perm = 0b11 // read-execute
)

// PermBits is the width of a permission field inside a Permission Entry.
const PermBits = 2

// String implements fmt.Stringer.
func (p Perm) String() string {
	switch p {
	case NoPerm:
		return "--"
	case ReadOnly:
		return "r-"
	case ReadWrite:
		return "rw"
	case ReadExecute:
		return "rx"
	default:
		return fmt.Sprintf("Perm(%d)", uint8(p))
	}
}

// AccessKind distinguishes the three access types checked by DAV.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
	Execute
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Allows reports whether permission p allows an access of kind k.
func (p Perm) Allows(k AccessKind) bool {
	switch k {
	case Read:
		return p != NoPerm
	case Write:
		return p == ReadWrite
	case Execute:
		return p == ReadExecute
	default:
		return false
	}
}

// AlignDown rounds a down to a multiple of align. align must be a power of
// two.
func AlignDown(a, align uint64) uint64 {
	return a &^ (align - 1)
}

// AlignUp rounds a up to a multiple of align. align must be a power of two.
func AlignUp(a, align uint64) uint64 {
	return (a + align - 1) &^ (align - 1)
}

// IsAligned reports whether a is a multiple of align (a power of two).
func IsAligned(a, align uint64) bool {
	return a&(align-1) == 0
}

// PageDown returns the 4 KB page base containing va.
func (va VA) PageDown() VA { return VA(AlignDown(uint64(va), PageSize4K)) }

// PageNumber returns the 4 KB virtual page number of va.
func (va VA) PageNumber() uint64 { return uint64(va) >> PageShift4K }

// PageDown returns the 4 KB frame base containing pa.
func (pa PA) PageDown() PA { return PA(AlignDown(uint64(pa), PageSize4K)) }

// VRange is a half-open range [Start, Start+Size) of virtual addresses.
type VRange struct {
	Start VA
	Size  uint64
}

// End returns one past the last address of the range.
func (r VRange) End() VA { return r.Start + VA(r.Size) }

// Contains reports whether va lies inside the range.
func (r VRange) Contains(va VA) bool { return va >= r.Start && va < r.End() }

// Overlaps reports whether two ranges share at least one address.
func (r VRange) Overlaps(o VRange) bool {
	return r.Start < o.End() && o.Start < r.End()
}

// Empty reports whether the range has zero size.
func (r VRange) Empty() bool { return r.Size == 0 }

// String implements fmt.Stringer.
func (r VRange) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End()))
}

// PRange is a half-open range [Start, Start+Size) of physical addresses.
type PRange struct {
	Start PA
	Size  uint64
}

// End returns one past the last address of the range.
func (r PRange) End() PA { return r.Start + PA(r.Size) }

// Contains reports whether pa lies inside the range.
func (r PRange) Contains(pa PA) bool { return pa >= r.Start && pa < r.End() }

// Overlaps reports whether two ranges share at least one address.
func (r PRange) Overlaps(o PRange) bool {
	return r.Start < o.End() && o.Start < r.End()
}

// String implements fmt.Stringer.
func (r PRange) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End()))
}

// Identity reports whether the virtual range r maps identically onto the
// physical range p — the VA==PA condition at the heart of DVM.
func Identity(r VRange, p PRange) bool {
	return uint64(r.Start) == uint64(p.Start) && r.Size == p.Size
}

// Package pagetable implements the x86-64 radix page table used by the DVM
// simulation, extended with the paper's Permission Entry (PE) format
// (Section 4.1.1).
//
// A PE is a leaf page-table entry that may appear at any level. Instead of
// a physical frame number it stores sixteen 2-bit permission fields, one
// per aligned 1/16th sub-region of the VA range the entry maps, and it
// implicitly guarantees that all allocated memory in that range is identity
// mapped (VA==PA). Replacing an interior entry with a PE deletes the whole
// subtree beneath it, which is where the paper's dramatic page-table size
// reductions (Table 1) come from: leaf (L1) page-table pages are ~98% of a
// conventional table's footprint.
//
// The package also provides the page walker used by the simulated IOMMU and
// CPU MMUs. The walker reports the full trace of entry accesses (with the
// simulated physical addresses of the page-table lines touched) so the MMU
// models can charge PWC/AVC hits and memory references accurately.
package pagetable

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
)

// EntriesPerNode is the number of entries in one page-table page.
const EntriesPerNode = 512

// EntryBytes is the architectural size of one page-table entry.
const EntryBytes = 8

// NodeBytes is the size of one page-table page.
const NodeBytes = EntriesPerNode * EntryBytes // 4 KB

// DefaultPEFields is the paper's PE fan-out: sixteen permission fields per
// entry. The ablation benchmarks sweep this.
const DefaultPEFields = 16

// ptNodeRegion is the base simulated physical address from which page-table
// pages themselves are allocated. It sits high in the 48-bit physical space
// so it never collides with identity-mapped application data.
const ptNodeRegion = uint64(1) << 46

// EntryKind classifies a page-table entry.
type EntryKind uint8

// Entry kinds.
const (
	// EntryEmpty is a non-present entry.
	EntryEmpty EntryKind = iota
	// EntryTable points to a next-level page-table page.
	EntryTable
	// EntryLeaf maps a page (4 KB at L1, 2 MB at L2, 1 GB at L3).
	EntryLeaf
	// EntryPE is a Permission Entry: identity-mapped, permissions per
	// aligned sub-region, no subtree.
	EntryPE
)

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	switch k {
	case EntryEmpty:
		return "empty"
	case EntryTable:
		return "table"
	case EntryLeaf:
		return "leaf"
	case EntryPE:
		return "pe"
	default:
		return fmt.Sprintf("EntryKind(%d)", uint8(k))
	}
}

// Entry is one slot of a page-table node: one 64-bit word laid out like
// a hardware PTE, so a node is the 4 KB page it simulates.
//
//	bits 0-2   kind (EntryKind; 4-7 are invalid and fault)
//	bits 3-6   leaf permission (addr.Perm; values above ReadExecute fault)
//	bits 12-63 payload
//
// The payload is the frame number for EntryLeaf, in units of the page
// size mapped at the entry's level. For EntryTable it is the index of
// the child in its node's kids, for EntryPE the index of the permission
// fields in its node's pes: the simulator keeps those Go pointers beside
// the entries rather than in them, so the entries hold no pointers.
type Entry uint64

// Entry word layout.
const (
	entryKindMask    = 0x7
	entryPermShift   = 3
	entryPermMask    = 0xF
	entryPayloadBits = 12 // the payload is the top 52 bits
)

// makeEntry packs an entry word. perm and payload are truncated to
// their fields.
func makeEntry(kind EntryKind, perm addr.Perm, payload uint64) Entry {
	return Entry(uint64(kind)&entryKindMask |
		uint64(perm)&entryPermMask<<entryPermShift |
		payload<<entryPayloadBits)
}

// Kind classifies the entry and selects what its payload means.
func (e Entry) Kind() EntryKind { return EntryKind(e & entryKindMask) }

// Perm is the page permission of an EntryLeaf entry.
func (e Entry) Perm() addr.Perm { return addr.Perm(e >> entryPermShift & entryPermMask) }

// PFN is the physical page number of an EntryLeaf entry, in units of
// the page size mapped at its level.
func (e Entry) PFN() uint64 { return uint64(e) >> entryPayloadBits }

// slot is the side-slice index of an EntryTable or EntryPE entry: the
// same payload bits a leaf uses for its frame number.
func (e Entry) slot() uint64 { return uint64(e) >> entryPayloadBits }

// Node is one page-table page: 512 entry words. The Go pointers a node
// needs — its children and its PEs' permission fields — sit in two side
// slices ahead of the entries, so the collector scans two slice headers
// and not the 4 KB page. Level-1 nodes have neither.
type Node struct {
	// kids holds the children of EntryTable entries, indexed by the
	// entry's payload. A slot whose entry is overwritten is cleared,
	// so only reachable subtrees stay alive.
	kids []*Node
	// pes holds the permission fields of EntryPE entries, indexed by
	// the entry's payload; each has the table's PEFields elements.
	pes [][]addr.Perm
	// Entries are the page's entry words.
	Entries [EntriesPerNode]Entry
	// Level of this node's entries: 1 (leaf page table, 4 KB per entry)
	// through the table's root level.
	Level int
	// PA is the simulated physical address of this page-table page; the
	// PWC and AVC are physically indexed, so walker steps carry entry
	// addresses derived from it.
	PA addr.PA
}

// child returns the subtree of the EntryTable entry e, or nil when e's
// payload names no child.
func (n *Node) child(e Entry) *Node {
	if k := e.slot(); k < uint64(len(n.kids)) {
		return n.kids[k]
	}
	return nil
}

// fields returns the permission fields of the EntryPE entry e, or nil
// when e's payload names none.
func (n *Node) fields(e Entry) []addr.Perm {
	if k := e.slot(); k < uint64(len(n.pes)) {
		return n.pes[k]
	}
	return nil
}

// set overwrites entry i with e, first clearing the side slot of the
// entry it replaces.
func (n *Node) set(i int, e Entry) {
	switch old := n.Entries[i]; old.Kind() {
	case EntryTable:
		if k := old.slot(); k < uint64(len(n.kids)) {
			n.kids[k] = nil
		}
	case EntryPE:
		if k := old.slot(); k < uint64(len(n.pes)) {
			n.pes[k] = nil
		}
	}
	n.Entries[i] = e
}

// setTable makes entry i an EntryTable entry linking child (nil for a
// truncated, corrupt link).
func (n *Node) setTable(i int, child *Node) {
	if n.kids == nil && n.Level == 2 {
		// Level-2 children are the level-1 pages, nearly all of a
		// dense table's nodes: allocate their slots once, for the full
		// fan-out, rather than regrowing the slice ten times.
		n.kids = make([]*Node, 0, EntriesPerNode)
	}
	n.set(i, makeEntry(EntryTable, addr.NoPerm, uint64(len(n.kids))))
	n.kids = append(n.kids, child)
}

// setPE makes entry i a Permission Entry with the given fields, which
// the node takes ownership of.
func (n *Node) setPE(i int, perms []addr.Perm) {
	n.set(i, makeEntry(EntryPE, addr.NoPerm, uint64(len(n.pes))))
	n.pes = append(n.pes, perms)
}

// EntryPA returns the simulated physical address of entry i, i.e. the
// memory word the hardware walker fetches.
func (n *Node) EntryPA(i int) addr.PA {
	return n.PA + addr.PA(i*EntryBytes)
}

// Config controls page-table shape.
type Config struct {
	// Levels is the radix depth: 4 (x86-64) or 5 (la57). Zero means 4.
	Levels int
	// PEFields is the number of permission fields per Permission Entry.
	// Zero means DefaultPEFields. Must divide EntriesPerNode.
	PEFields int
}

func (c Config) withDefaults() Config {
	if c.Levels == 0 {
		c.Levels = 4
	}
	if c.PEFields == 0 {
		c.PEFields = DefaultPEFields
	}
	return c
}

func (c Config) validate() error {
	if c.Levels != 4 && c.Levels != 5 {
		return fmt.Errorf("pagetable: Levels must be 4 or 5, got %d", c.Levels)
	}
	if c.PEFields < 1 || c.PEFields > EntriesPerNode || EntriesPerNode%c.PEFields != 0 {
		return fmt.Errorf("pagetable: PEFields must divide %d, got %d", EntriesPerNode, c.PEFields)
	}
	return nil
}

// Table is a radix page table with Permission Entry support.
type Table struct {
	cfg    Config
	root   *Node
	nextPA uint64
}

// New creates an empty page table.
func New(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Table{cfg: cfg, nextPA: ptNodeRegion}
	t.root = t.newNode(cfg.Levels)
	return t, nil
}

// MustNew is New that panics on error, for constant-valid configurations.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the table's configuration (with defaults applied).
func (t *Table) Config() Config { return t.cfg }

// Root returns the root node (level == Config().Levels).
func (t *Table) Root() *Node { return t.root }

func (t *Table) newNode(level int) *Node {
	n := &Node{Level: level, PA: addr.PA(t.nextPA)}
	t.nextPA += NodeBytes
	return n
}

// entrySpan returns the bytes of virtual address space mapped by one entry
// at the given level: 4 KB at level 1, 2 MB at level 2, 1 GB at level 3...
func entrySpan(level int) uint64 {
	return uint64(1) << levelShift(level)
}

// levelShift is log2 of entrySpan(level).
func levelShift(level int) uint {
	return 12 + 9*uint(level-1)
}

// indexAt returns the entry index for va at the given level.
func indexAt(va addr.VA, level int) int {
	return int(uint64(va) >> levelShift(level) & (EntriesPerNode - 1))
}

// leafLevelFor returns the page-table level whose leaves map the given page
// size, or 0 if the size is not a supported page size.
func leafLevelFor(pageSize uint64) int {
	switch pageSize {
	case addr.PageSize4K:
		return 1
	case addr.PageSize2M:
		return 2
	case addr.PageSize1G:
		return 3
	default:
		return 0
	}
}

// Map installs a leaf mapping of the given page size for va -> pa. Both
// addresses must be aligned to pageSize. A table is built by mapping
// every page first and compacting last, and is never changed once built,
// so mapping into a range a Permission Entry (or a larger leaf) already
// covers is an error that leaves the table as it was.
func (t *Table) Map(va addr.VA, pa addr.PA, perm addr.Perm, pageSize uint64) error {
	leafLevel := leafLevelFor(pageSize)
	if leafLevel == 0 {
		return fmt.Errorf("pagetable: unsupported page size %d", pageSize)
	}
	if !addr.IsAligned(uint64(va), pageSize) || !addr.IsAligned(uint64(pa), pageSize) {
		return fmt.Errorf("pagetable: unaligned mapping %#x -> %#x (page size %d)", uint64(va), uint64(pa), pageSize)
	}
	if va >= addr.MaxVA && t.cfg.Levels == 4 {
		return fmt.Errorf("pagetable: va %#x beyond 48-bit space", uint64(va))
	}
	n, err := t.descendFor(va, leafLevel)
	if err != nil {
		return err
	}
	return t.installLeaf(n, va, pa, perm, leafLevel, pageSize)
}

// descendFor returns the node at leafLevel covering va, creating missing
// interior nodes. Any entry above leafLevel other than an empty slot or a
// table link already covers va, and mapping beneath it is an error.
func (t *Table) descendFor(va addr.VA, leafLevel int) (*Node, error) {
	n := t.root
	for n.Level > leafLevel {
		i := indexAt(va, n.Level)
		switch e := n.Entries[i]; e.Kind() {
		case EntryEmpty:
			n.setTable(i, t.newNode(n.Level-1))
		case EntryTable:
			if n.child(e) == nil {
				return nil, fmt.Errorf("pagetable: %#x: level-%d table entry has no subtree", uint64(va), n.Level)
			}
		default:
			return nil, fmt.Errorf("pagetable: %#x already covered by a level-%d %v entry", uint64(va), n.Level, e.Kind())
		}
		n = n.child(n.Entries[i])
	}
	return n, nil
}

// installLeaf writes the leaf entry for va into node n (already at the
// leaf level).
func (t *Table) installLeaf(n *Node, va addr.VA, pa addr.PA, perm addr.Perm, leafLevel int, pageSize uint64) error {
	i := indexAt(va, leafLevel)
	switch n.Entries[i].Kind() {
	case EntryTable:
		return fmt.Errorf("pagetable: %#x already has a subtree below level %d", uint64(va), leafLevel)
	case EntryPE:
		return fmt.Errorf("pagetable: %#x covered by a level-%d PE", uint64(va), leafLevel)
	}
	n.Entries[i] = makeEntry(EntryLeaf, perm, uint64(pa)/pageSize)
	return nil
}

// MapRange maps the virtual range r to physical memory starting at pa using
// pages of pageSize. r.Start, pa and r.Size must all be pageSize-aligned.
//
// The loop memoizes the current leaf-level node: consecutive pages land
// in the same node 511 times out of 512, so the root-to-leaf descent
// runs only on node boundaries instead of per page. Node-allocation
// order — and with it every node's simulated PA — is identical to
// per-page Map calls, because descents still happen in ascending VA
// order and create exactly the missing interior nodes top-down.
func (t *Table) MapRange(r addr.VRange, pa addr.PA, perm addr.Perm, pageSize uint64) error {
	if !addr.IsAligned(r.Size, pageSize) {
		return fmt.Errorf("pagetable: range size %#x not aligned to page size %d", r.Size, pageSize)
	}
	leafLevel := leafLevelFor(pageSize)
	if leafLevel == 0 || !addr.IsAligned(uint64(r.Start), pageSize) || !addr.IsAligned(uint64(pa), pageSize) {
		// Per-page Map reports the precise error for malformed inputs.
		for off := uint64(0); off < r.Size; off += pageSize {
			if err := t.Map(r.Start+addr.VA(off), pa+addr.PA(off), perm, pageSize); err != nil {
				return err
			}
		}
		return nil
	}
	nodeSpan := entrySpan(leafLevel) * EntriesPerNode
	var (
		n    *Node
		base uint64
	)
	for off := uint64(0); off < r.Size; off += pageSize {
		va := r.Start + addr.VA(off)
		if va >= addr.MaxVA && t.cfg.Levels == 4 {
			return fmt.Errorf("pagetable: va %#x beyond 48-bit space", uint64(va))
		}
		if n == nil || uint64(va)-base >= nodeSpan {
			var err error
			n, err = t.descendFor(va, leafLevel)
			if err != nil {
				return err
			}
			base = addr.AlignDown(uint64(va), nodeSpan)
		}
		if err := t.installLeaf(n, va, pa+addr.PA(off), perm, leafLevel, pageSize); err != nil {
			return err
		}
	}
	return nil
}

// SetPE installs a Permission Entry directly at the entry covering va at
// the given level, replacing whatever was there. perms must have PEFields
// elements. va must be aligned to the entry span of that level. The
// walker's tests and fuzz targets build their fixtures with it.
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
	n := t.root
	for n.Level > level {
		e := n.Entries[indexAt(va, n.Level)]
		if e.Kind() != EntryTable || n.child(e) == nil {
			return fmt.Errorf("pagetable: no subtree at level %d for %#x", n.Level, uint64(va))
		}
		n = n.child(e)
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

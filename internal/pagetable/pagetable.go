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
// A page-table page (Node) is stored in one of two states that read the
// same. Interior pages, and level-1 pages whose entries are not one run,
// hold their 512 entry words. A level-1 page whose mapped entries are one
// run of consecutive frames with one permission — what an identity-mapped
// VMA leaves in nearly every level-1 page — stores only the run's bounds
// and its first entry word, and gets its words the first time a write
// does not extend the run. Node PAs, entry words, walks and compaction do
// not depend on the state.
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

// Node is one page-table page. It has two states:
//
//   - Words state: the page's 512 entry words, in words. Interior pages
//     are always in this state.
//   - Run state (level-1 pages only, words == nil): entries [lo, hi)
//     are leaves with one permission whose frame numbers count up from
//     the word run at entry lo; every other entry is empty. A page an
//     identity-mapped VMA fills — nearly every level-1 page of a big
//     heap — costs this header and no 4 KB array.
//
// A page leaves the run state, for good, the first time a write does
// not extend the run (see writable). Readers see the same entry words
// in either state through entry.
//
// The Go pointers a node needs — its children and its PEs' permission
// fields — sit in two side slices, so the entry words hold no pointers
// and the collector never scans them. Level-1 nodes have neither.
type Node struct {
	// kids holds the children of EntryTable entries, indexed by the
	// entry's payload. A slot whose entry is overwritten is cleared,
	// so only reachable subtrees stay alive.
	kids []*Node
	// pes holds the permission fields of EntryPE entries, indexed by
	// the entry's payload; each has the table's PEFields elements.
	pes [][]addr.Perm
	// words are the page's entry words in words state; nil in run
	// state.
	words *[EntriesPerNode]Entry
	// run is the entry word at index lo of a run-state page; entry
	// lo+k is run with k added to its frame number.
	run Entry
	// lo and hi bound a run-state page's run; lo == hi is an empty page.
	lo, hi uint16
	// Level of this node's entries: 1 (leaf page table, 4 KB per entry)
	// through the table's root level.
	Level int
	// PA is the simulated physical address of this page-table page; the
	// PWC and AVC are physically indexed, so walker steps carry entry
	// addresses derived from it.
	PA addr.PA
}

// runEntry is the entry word at index i of a run-state page, for i in
// [lo, hi): the frame number is the payload, so adding k pages is adding
// k at the payload's shift, and it wraps exactly as makeEntry truncates.
func (n *Node) runEntry(i int) Entry {
	return n.run + Entry(uint64(i-int(n.lo))<<entryPayloadBits)
}

// entry returns entry word i, in either state. Every reader of a node's
// entries goes through it.
func (n *Node) entry(i int) Entry {
	if n.words != nil {
		return n.words[i]
	}
	if i >= int(n.lo) && i < int(n.hi) {
		return n.runEntry(i)
	}
	return 0
}

// extendRun tries to write the leaf word e at entry i without leaving
// the run state: i must start the run of an empty level-1 page or
// continue the run where it ends, with e the word that follows its
// last. It reports whether it did; if not, the caller writes through
// writable.
func (n *Node) extendRun(i int, e Entry) bool {
	if n.words != nil || n.Level != 1 {
		return false
	}
	switch {
	case n.lo == n.hi:
		n.run, n.lo = e, uint16(i)
	case i != int(n.hi) || e != n.runEntry(i):
		return false
	}
	n.hi = uint16(i + 1)
	return true
}

// writable returns the node's entry words for writing, first moving a
// run-state page to words state. It is the one path by which entry
// words are written.
func (n *Node) writable() *[EntriesPerNode]Entry {
	if n.words == nil {
		w := new([EntriesPerNode]Entry)
		for i := int(n.lo); i < int(n.hi); i++ {
			w[i] = n.runEntry(i)
		}
		n.words, n.run, n.lo, n.hi = w, 0, 0, 0
	}
	return n.words
}

// link returns the subtree of the EntryTable entry e when e is a valid
// link: a child exactly one level down. It returns nil for a link with
// no subtree, a self- or cross-link and a table entry at level 1. It is
// the one link check: every walk, reader, compaction and mutation
// descends only through it, and since each step goes one level down, no
// descent through a cyclic table takes more than Levels steps.
func (n *Node) link(e Entry) *Node {
	if k := e.slot(); n.Level > 1 && k < uint64(len(n.kids)) {
		if c := n.kids[k]; c != nil && c.Level == n.Level-1 {
			return c
		}
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
	switch old := n.entry(i); old.Kind() {
	case EntryTable:
		if k := old.slot(); k < uint64(len(n.kids)) {
			n.kids[k] = nil
		}
	case EntryPE:
		if k := old.slot(); k < uint64(len(n.pes)) {
			n.pes[k] = nil
		}
	}
	n.writable()[i] = e
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

// newNode allocates the next page-table page: an interior page with its
// entry words, a level-1 page empty in run state.
func (t *Table) newNode(level int) *Node {
	n := &Node{Level: level, PA: addr.PA(t.nextPA)}
	if level > 1 {
		n.words = new([EntriesPerNode]Entry)
	}
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
// table link already covers va, and mapping beneath it is an error; so is
// a link that fails link (a corrupt link, which may be a cycle).
func (t *Table) descendFor(va addr.VA, leafLevel int) (*Node, error) {
	n := t.root
	for n.Level > leafLevel {
		i := indexAt(va, n.Level)
		switch e := n.entry(i); e.Kind() {
		case EntryEmpty:
			n.setTable(i, t.newNode(n.Level-1))
		case EntryTable:
			if n.link(e) == nil {
				return nil, errInvalid(va, n.Level, e)
			}
		default:
			return nil, fmt.Errorf("pagetable: %#x already covered by a level-%d %v entry", uint64(va), n.Level, e.Kind())
		}
		n = n.link(n.entry(i))
	}
	return n, nil
}

// installLeaf writes the leaf entry for va into node n (already at the
// leaf level).
func (t *Table) installLeaf(n *Node, va addr.VA, pa addr.PA, perm addr.Perm, leafLevel int, pageSize uint64) error {
	i := indexAt(va, leafLevel)
	e := makeEntry(EntryLeaf, perm, uint64(pa)/pageSize)
	if n.extendRun(i, e) {
		return nil
	}
	switch n.entry(i).Kind() {
	case EntryTable:
		return fmt.Errorf("pagetable: %#x already has a subtree below level %d", uint64(va), leafLevel)
	case EntryPE:
		return fmt.Errorf("pagetable: %#x covered by a level-%d PE", uint64(va), leafLevel)
	}
	n.writable()[i] = e
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

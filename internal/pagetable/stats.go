package pagetable

import "github.com/dvm-sim/dvm/internal/addr"

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
// table.
func (t *Table) SizeStats() SizeStats {
	var s SizeStats
	t.statsNode(t.root, 0, &s)
	s.Bytes = uint64(s.Nodes) * NodeBytes
	if s.Bytes > 0 {
		s.L1Fraction = float64(s.NodesPerLevel[1]) * NodeBytes / float64(s.Bytes)
	}
	return s
}

func (t *Table) statsNode(n *Node, base addr.VA, s *SizeStats) {
	s.Nodes++
	s.NodesPerLevel[n.Level]++
	span := entrySpan(n.Level)
	for i := 0; i < EntriesPerNode; i++ {
		e := n.entry(i)
		eBase := base + addr.VA(uint64(i)*span)
		switch e.Kind() {
		case EntryTable:
			t.statsNode(n.child(e), eBase, s)
		case EntryLeaf:
			if e.Perm() == addr.NoPerm {
				continue
			}
			s.LeafCount++
			pages := span / addr.PageSize4K
			s.MappedPages += pages
			if e.PFN()*span == uint64(eBase) {
				s.IdentityPages += pages
			}
		case EntryPE:
			s.PECount++
			field := span / uint64(t.cfg.PEFields)
			for _, p := range n.fields(e) {
				if p == addr.NoPerm {
					continue
				}
				pages := field / addr.PageSize4K
				s.MappedPages += pages
				s.IdentityPages += pages
			}
		}
	}
}

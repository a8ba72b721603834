package pagetable

import (
	"slices"

	"github.com/dvm-sim/dvm/internal/addr"
)

// entrySummary is the bottom-up analysis result for one entry, used by
// Compact to decide where Permission Entries can replace subtrees.
type entrySummary struct {
	// identity: every mapped page under this entry satisfies PA == VA
	// (empty ranges count as identity).
	identity bool
	// uniform: the whole span has a single permission (NoPerm for fully
	// unmapped spans).
	uniform bool
	// perm is the uniform permission (valid only when uniform).
	perm addr.Perm
	// empty: nothing mapped under this entry at all.
	empty bool
}

// Compact folds identity-mapped, permission-uniform subtrees into
// Permission Entries (paper Section 4.1.1) and prunes empty subtrees. It
// returns the number of PEs created. Compact is idempotent: running it
// twice yields no further change.
//
// An interior entry at level L (span S) becomes a PE when every mapped page
// beneath it is identity mapped and each of the PEFields aligned S/PEFields
// sub-regions has one uniform permission (fully-unmapped sub-regions encode
// as NoPerm). This is exactly the paper's rule: a 2 MB L2 entry folds when
// its sixteen 128 KB sub-regions are uniform; a 1 GB L3 entry folds over
// sixteen 64 MB sub-regions, and so on.
func (t *Table) Compact() int {
	created := 0
	t.compactNode(t.root, 0, false, &created)
	return created
}

// Compacted returns the table Compact would leave, built on a copy: t is
// not modified and shares no node or PE field slice with the result.
// Every surviving node keeps its simulated PA and the copy continues
// t's node allocator, so walks of the copy touch exactly the entry
// addresses walks of t.Compact() would — the physically indexed PWC and
// AVC see the same lines. Leaf nodes that fold into PEs are never
// copied, which is what makes this cheaper than building the table a
// second time and compacting it.
func (t *Table) Compacted() *Table {
	c := &Table{cfg: t.cfg, nextPA: t.nextPA}
	created := 0
	c.root = t.compactNode(t.root, 0, true, &created)
	return c
}

// compactNode post-order compacts the subtrees under n, whose base
// virtual address is base, and returns the node that now holds them: n
// itself in place, or with clone a copy of n, leaving n untouched. A
// level-1 child has nothing beneath it to fold, so it is summarized
// where it is and, with clone, copied only if it survives. A folded or
// emptied entry clears its kids slot, so the subtree it dropped is
// garbage even when n is compacted in place.
func (t *Table) compactNode(n *Node, base addr.VA, clone bool, created *int) *Node {
	if clone {
		n = cloneNode(n)
	}
	span := entrySpan(n.Level)
	for i := 0; i < EntriesPerNode; i++ {
		e := n.entry(i)
		if e.Kind() != EntryTable {
			continue
		}
		eBase := base + addr.VA(uint64(i)*span)
		child := n.child(e)
		if child.Level > 1 {
			child = t.compactNode(child, eBase, clone, created)
		}
		s := t.nodeSummaryAt(child, eBase)
		if s.empty {
			n.set(i, 0)
			continue
		}
		if s.identity && n.Level >= 2 {
			if perms, ok := t.groupPerms(child, eBase); ok {
				n.setPE(i, perms)
				*created++
				continue
			}
		}
		if clone && child.Level == 1 {
			child = cloneNode(child)
		}
		n.kids[e.slot()] = child
	}
	return n
}

// cloneNode returns a copy of n with its own entry words, kids and PE
// field slices. Its kids still point at n's children; compactNode
// relinks them.
func cloneNode(n *Node) *Node {
	c := *n
	if n.words != nil {
		w := *n.words
		c.words = &w
	}
	c.kids = slices.Clone(n.kids)
	c.pes = slices.Clone(n.pes)
	for k, perms := range c.pes {
		c.pes[k] = slices.Clone(perms)
	}
	return &c
}

// summarize produces the summary for entry e of node n, whose base
// virtual address is baseVA.
func (t *Table) summarize(n *Node, e Entry, baseVA addr.VA) entrySummary {
	switch e.Kind() {
	case EntryEmpty:
		return entrySummary{identity: true, uniform: true, perm: addr.NoPerm, empty: true}
	case EntryLeaf:
		if e.Perm() == addr.NoPerm {
			return entrySummary{identity: true, uniform: true, perm: addr.NoPerm, empty: true}
		}
		span := entrySpan(n.Level)
		ident := e.PFN()*span == uint64(baseVA)
		return entrySummary{identity: ident, uniform: true, perm: e.Perm()}
	case EntryPE:
		perms := n.fields(e)
		first := perms[0]
		uniform := true
		empty := first == addr.NoPerm
		for _, p := range perms[1:] {
			if p != first {
				uniform = false
			}
			if p != addr.NoPerm {
				empty = false
			}
		}
		return entrySummary{identity: true, uniform: uniform, perm: first, empty: empty}
	case EntryTable:
		return t.nodeSummaryAt(n.child(e), baseVA)
	default:
		return entrySummary{}
	}
}

// nodeSummaryAt aggregates the summaries of all entries of n, whose base
// virtual address is base.
func (t *Table) nodeSummaryAt(n *Node, base addr.VA) entrySummary {
	if n.words == nil {
		return n.runSummary(base)
	}
	span := entrySpan(n.Level)
	agg := entrySummary{identity: true, uniform: true, perm: addr.NoPerm, empty: true}
	first := true
	for i, e := range n.words {
		s := t.summarize(n, e, base+addr.VA(uint64(i)*span))
		if !s.identity {
			agg.identity = false
		}
		if !s.empty {
			agg.empty = false
		}
		if !s.uniform {
			agg.uniform = false
		}
		if first {
			agg.perm = s.perm
			first = false
		} else if s.perm != agg.perm {
			agg.uniform = false
		}
	}
	return agg
}

// groupPerms computes the PEFields per-group permissions for replacing the
// parent entry of node n (at base VA base) with a PE. It returns ok=false
// if any group is non-uniform or any content is non-identity.
func (t *Table) groupPerms(n *Node, base addr.VA) ([]addr.Perm, bool) {
	group := EntriesPerNode / t.cfg.PEFields
	perms := make([]addr.Perm, t.cfg.PEFields)
	if n.words == nil {
		return n.runGroupPerms(base, group, perms)
	}
	span := entrySpan(n.Level)
	for g := 0; g < t.cfg.PEFields; g++ {
		var gp addr.Perm
		firstSet := false
		for k := 0; k < group; k++ {
			i := g*group + k
			s := t.summarize(n, n.words[i], base+addr.VA(uint64(i)*span))
			if !s.identity || !s.uniform {
				return nil, false
			}
			if !firstSet {
				gp = s.perm
				firstSet = true
			} else if s.perm != gp {
				return nil, false
			}
		}
		perms[g] = gp
	}
	return perms, true
}

// runMapped reports whether a run-state page maps anything: its run is
// not empty and its leaves carry a permission.
func (n *Node) runMapped() bool { return n.lo < n.hi && n.run.Perm() != addr.NoPerm }

// runIdentity reports whether the leaves of a run-state page at base are
// identity mapped. The frames count up with the entries, so either all
// of them are or none is.
func (n *Node) runIdentity(base addr.VA) bool {
	span := entrySpan(n.Level)
	return n.run.PFN()*span == uint64(base)+uint64(n.lo)*span
}

// runSummary is nodeSummaryAt of a run-state page, in O(1): the entries
// outside the run are empty, so the page is uniform only if the run
// fills it, and its permission is entry 0's.
func (n *Node) runSummary(base addr.VA) entrySummary {
	if !n.runMapped() {
		return entrySummary{identity: true, uniform: true, perm: addr.NoPerm, empty: true}
	}
	s := entrySummary{identity: n.runIdentity(base), uniform: n.lo == 0 && n.hi == EntriesPerNode, perm: addr.NoPerm}
	if n.lo == 0 {
		s.perm = n.run.Perm()
	}
	return s
}

// runGroupPerms is groupPerms of a run-state page, in O(len(perms)): a
// group inside the run has the run's permission, a group outside it
// none, and a group the run's edge cuts is not uniform.
func (n *Node) runGroupPerms(base addr.VA, group int, perms []addr.Perm) ([]addr.Perm, bool) {
	if !n.runMapped() {
		return perms, true
	}
	if !n.runIdentity(base) {
		return nil, false
	}
	lo, hi := int(n.lo), int(n.hi)
	for g := range perms {
		switch first, end := g*group, (g+1)*group; {
		case end <= lo || first >= hi:
			perms[g] = addr.NoPerm
		case first >= lo && end <= hi:
			perms[g] = n.run.Perm()
		default:
			return nil, false
		}
	}
	return perms, true
}

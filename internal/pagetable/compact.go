package pagetable

import (
	"slices"

	"github.com/dvm-sim/dvm/internal/addr"
)

// entrySummary is the bottom-up analysis result for one entry, used by
// Compacted to decide where Permission Entries can replace subtrees.
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

// emptySummary summarizes a range with nothing mapped.
var emptySummary = entrySummary{identity: true, uniform: true, perm: addr.NoPerm, empty: true}

// join returns the summary of the range a summarizes followed by the one
// s summarizes.
func (a entrySummary) join(s entrySummary) entrySummary {
	return entrySummary{
		identity: a.identity && s.identity,
		uniform:  a.uniform && s.uniform && a.perm == s.perm,
		perm:     a.perm,
		empty:    a.empty && s.empty,
	}
}

// Compacted returns the table with identity-mapped, permission-uniform
// subtrees folded into Permission Entries (paper Section 4.1.1) and
// empty subtrees pruned. It is the one way a table is compacted, and
// compacting its result changes nothing.
//
// An interior entry at level L (span S) becomes a PE when every mapped page
// beneath it is identity mapped and each of the PEFields aligned S/PEFields
// sub-regions has one uniform permission (fully-unmapped sub-regions encode
// as NoPerm). This is exactly the paper's rule: a 2 MB L2 entry folds when
// its sixteen 128 KB sub-regions are uniform; a 1 GB L3 entry folds over
// sixteen 64 MB sub-regions, and so on.
//
// t is not modified and shares no node or PE field slice with the
// result. Every surviving node keeps its simulated PA and the result
// continues t's node allocator, so its walks touch the entry addresses
// (and the physically indexed PWC and AVC the lines) that folding t
// where it stands would give. Leaf nodes that fold into PEs are never
// copied. At an entry the walker would fault as corrupt or as a bad PE
// it returns an error.
func (t *Table) Compacted() (*Table, error) {
	root, _, err := t.compactNode(t.root, 0)
	if err != nil {
		return nil, err
	}
	return &Table{cfg: t.cfg, root: root, nextPA: t.nextPA}, nil
}

// compactNode returns the subtree n, whose base virtual address is base,
// compacted, with the summary of its entries, and leaves n untouched. A
// level-1 n has nothing beneath it to fold, so it is returned as it is,
// and its parent copies it only if it survives; an interior n is copied,
// and each of its table entries is cleared if nothing is mapped beneath
// it, made a PE if its subtree folds, or linked to the compacted copy.
func (t *Table) compactNode(n *Node, base addr.VA) (*Node, entrySummary, error) {
	if n.Level == 1 {
		s, err := t.rangeSummary(n, base, 0, EntriesPerNode)
		return n, s, err
	}
	n = cloneNode(n)
	span := entrySpan(n.Level)
	for i := 0; i < EntriesPerNode; i++ {
		e, eBase := n.entry(i), base+addr.VA(uint64(i)*span)
		if e.Kind() != EntryTable {
			continue
		}
		child := n.link(e)
		if child == nil {
			return nil, entrySummary{}, errInvalid(eBase, n.Level, e)
		}
		child, s, err := t.compactNode(child, eBase)
		switch {
		case err != nil:
			return nil, s, err
		case s.empty:
			n.set(i, 0)
			continue
		case s.identity:
			if perms, ok := t.groupPerms(child, eBase); ok {
				n.setPE(i, perms)
				continue
			}
		}
		if child.Level == 1 {
			child = cloneNode(child)
		}
		n.kids[e.slot()] = child
	}
	s, err := t.rangeSummary(n, base, 0, EntriesPerNode)
	return n, s, err
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
// virtual address is baseVA, or an error if valid rejects e.
func (t *Table) summarize(n *Node, e Entry, baseVA addr.VA) (entrySummary, error) {
	if !t.valid(n, e) {
		return entrySummary{}, errInvalid(baseVA, n.Level, e)
	}
	switch e.Kind() {
	case EntryEmpty:
		return emptySummary, nil
	case EntryLeaf:
		if e.Perm() == addr.NoPerm {
			return emptySummary, nil
		}
		ident := e.PFN()*entrySpan(n.Level) == uint64(baseVA)
		return entrySummary{identity: ident, uniform: true, perm: e.Perm()}, nil
	case EntryPE:
		s := entrySummary{identity: true, uniform: true, perm: n.fields(e)[0], empty: true}
		for _, p := range n.fields(e) {
			s = s.join(entrySummary{identity: true, uniform: true, perm: p, empty: p == addr.NoPerm})
		}
		return s, nil
	}
	// A table entry is summarized only once compactNode has kept its
	// subtree, which maps something and does not fold: all a summary of
	// it is used for.
	return entrySummary{}, nil
}

// rangeSummary aggregates the summaries of entries [a, b) of n, whose
// base virtual address is base. It reads a valid run-state page in
// O(1), not entry by entry: the entries outside the run are empty, so
// the range is uniform only if the run covers it, and its permission is
// entry a's.
func (t *Table) rangeSummary(n *Node, base addr.VA, a, b int) (entrySummary, error) {
	if lo, hi := int(n.lo), int(n.hi); n.words == nil && n.runValid() {
		if max(a, lo) >= min(b, hi) || n.run.Perm() == addr.NoPerm {
			return emptySummary, nil
		}
		span := entrySpan(n.Level)
		s := entrySummary{identity: n.run.PFN()*span == uint64(base)+uint64(lo)*span, uniform: lo <= a && b <= hi}
		if lo <= a {
			s.perm = n.run.Perm()
		}
		return s, nil
	}
	span := entrySpan(n.Level)
	agg := emptySummary
	for i := a; i < b; i++ {
		s, err := t.summarize(n, n.entry(i), base+addr.VA(uint64(i)*span))
		if err != nil {
			return s, err
		}
		if i == a {
			agg = s
		} else {
			agg = agg.join(s)
		}
	}
	return agg, nil
}

// groupPerms computes the PEFields per-group permissions for replacing the
// parent entry of node n (at base VA base) with a PE. It returns ok=false
// if any group is non-uniform or any content is non-identity.
func (t *Table) groupPerms(n *Node, base addr.VA) ([]addr.Perm, bool) {
	group := EntriesPerNode / t.cfg.PEFields
	perms := make([]addr.Perm, t.cfg.PEFields)
	for g := range perms {
		s, err := t.rangeSummary(n, base, g*group, (g+1)*group)
		if err != nil || !s.identity || !s.uniform {
			return nil, false
		}
		perms[g] = s.perm
	}
	return perms, true
}

// runValid reports whether valid accepts every leaf of a run-state page:
// its permission bits are valid and, the frame numbers counting up from
// entry lo, so are its first and last frames.
func (n *Node) runValid() bool {
	shift := levelShift(n.Level)
	return n.lo == n.hi || leafValid(n.run, shift) && leafValid(n.runEntry(int(n.hi)-1), shift)
}

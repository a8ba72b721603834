package pagetable

import (
	"fmt"
	"io"
	"strings"

	"github.com/dvm-sim/dvm/internal/addr"
)

// Dump writes a human-readable rendering of the table: every mapped region
// coalesced into runs, with its kind (PE / leaf), level, permissions and
// identity status, followed by the footprint summary. It is the
// inspection tool behind cmd/dvminspect.
func (t *Table) Dump(w io.Writer) error {
	var b strings.Builder
	t.dumpNode(t.root, 0, &b)
	s := t.SizeStats()
	fmt.Fprintf(&b, "-- %d nodes (%d B), %d PEs, %d leaf PTEs, %d mapped pages (%d identity)\n",
		s.Nodes, s.Bytes, s.PECount, s.LeafCount, s.MappedPages, s.IdentityPages)
	fmt.Fprintf(&b, "-- nodes per level:")
	for l := t.cfg.Levels; l >= 1; l-- {
		fmt.Fprintf(&b, " L%d=%d", l, s.NodesPerLevel[l])
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// dumpNode renders one node's entries, coalescing adjacent same-kind leaf
// runs.
func (t *Table) dumpNode(n *Node, base addr.VA, b *strings.Builder) {
	span := entrySpan(n.Level)
	type run struct {
		start addr.VA
		size  uint64
		perm  addr.Perm
		ident bool
	}
	var open *run
	flush := func() {
		if open == nil {
			return
		}
		kind := "leaf"
		if open.ident {
			kind = "leaf(identity)"
		}
		fmt.Fprintf(b, "%sL%d %-14s %v %s\n", indent(t.cfg.Levels-n.Level), n.Level, kind,
			addr.VRange{Start: open.start, Size: open.size}, open.perm)
		open = nil
	}
	for i := 0; i < EntriesPerNode; i++ {
		e := n.entry(i)
		eBase := base + addr.VA(uint64(i)*span)
		switch e.Kind() {
		case EntryEmpty:
			flush()
		case EntryTable:
			flush()
			fmt.Fprintf(b, "%sL%d table          %v\n", indent(t.cfg.Levels-n.Level), n.Level,
				addr.VRange{Start: eBase, Size: span})
			t.dumpNode(n.child(e), eBase, b)
		case EntryPE:
			flush()
			fmt.Fprintf(b, "%sL%d PE             %v fields[%s]\n", indent(t.cfg.Levels-n.Level), n.Level,
				addr.VRange{Start: eBase, Size: span}, peFieldString(n.fields(e)))
		case EntryLeaf:
			ident := e.PFN()*span == uint64(eBase)
			if open != nil && open.perm == e.Perm() && open.ident == ident && open.start+addr.VA(open.size) == eBase {
				open.size += span
				continue
			}
			flush()
			open = &run{start: eBase, size: span, perm: e.Perm(), ident: ident}
		}
	}
	flush()
}

// peFieldString compresses a PE's fields: runs of equal permissions render
// as perm×count.
func peFieldString(perms []addr.Perm) string {
	var parts []string
	i := 0
	for i < len(perms) {
		j := i
		for j < len(perms) && perms[j] == perms[i] {
			j++
		}
		parts = append(parts, fmt.Sprintf("%v×%d", perms[i], j-i))
		i = j
	}
	return strings.Join(parts, " ")
}

func indent(depth int) string { return strings.Repeat("  ", depth) }

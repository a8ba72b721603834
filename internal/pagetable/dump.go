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
// inspection tool behind cmd/dvminspect. At an entry the walker would
// fault as corrupt or as a bad PE it returns an error and writes nothing.
func (t *Table) Dump(w io.Writer) error {
	var b strings.Builder
	// open is the run of adjacent same-level leaves with one permission
	// and identity status not yet written; size 0 means none.
	var open struct {
		level int
		start addr.VA
		size  uint64
		perm  addr.Perm
		ident bool
	}
	flush := func() {
		if open.size == 0 {
			return
		}
		kind := "leaf"
		if open.ident {
			kind = "leaf(identity)"
		}
		fmt.Fprintf(&b, "%sL%d %-14s %v %s\n", indent(t.cfg.Levels-open.level), open.level, kind,
			addr.VRange{Start: open.start, Size: open.size}, open.perm)
		open.size = 0
	}
	err := t.visit(t.root, 0, func(n *Node, e Entry, base addr.VA) {
		span := entrySpan(n.Level)
		if e.Kind() == EntryLeaf {
			ident := e.PFN()*span == uint64(base)
			if open.size != 0 && open.level == n.Level && open.perm == e.Perm() && open.ident == ident && open.start+addr.VA(open.size) == base {
				open.size += span
				return
			}
			flush()
			open.level, open.start, open.size, open.perm, open.ident = n.Level, base, span, e.Perm(), ident
			return
		}
		flush()
		r := addr.VRange{Start: base, Size: span}
		if e.Kind() == EntryTable {
			fmt.Fprintf(&b, "%sL%d table          %v\n", indent(t.cfg.Levels-n.Level), n.Level, r)
		} else {
			fmt.Fprintf(&b, "%sL%d PE             %v fields[%s]\n", indent(t.cfg.Levels-n.Level), n.Level, r, peFieldString(n.fields(e)))
		}
	})
	if err != nil {
		return err
	}
	flush()
	s, err := t.SizeStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "-- %d nodes (%d B), %d PEs, %d leaf PTEs, %d mapped pages (%d identity)\n",
		s.Nodes, s.Bytes, s.PECount, s.LeafCount, s.MappedPages, s.IdentityPages)
	fmt.Fprintf(&b, "-- nodes per level:")
	for l := t.cfg.Levels; l >= 1; l-- {
		fmt.Fprintf(&b, " L%d=%d", l, s.NodesPerLevel[l])
	}
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
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

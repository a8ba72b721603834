package mmu

import (
	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// The per-PE AVC front table (DESIGN §8). One Permission Entry field
// validates a whole region, so a PE's accesses revisit the same few
// fields and the AVC hits on every step of their walks. A front entry
// remembers one such field: its VA span, its permission and the AVC
// line each walk step hits. While no line has been filled, evicted or
// invalidated since (the AVC's gen is unchanged), a walk of any VA in
// the span would take the same steps, hit the same resident lines and
// find the same permission — tables are fixed once laid out (DESIGN
// §11) — so replaying those hits is exact and skips the walk and the
// set scans.

// frontWays is the number of spans each PE remembers. A scatter touches
// five arrays (frontier, edge index, properties, edges, temporaries).
const frontWays = 8

// frontSteps bounds a recorded walk: a Permission Entry sits at level 2
// or above, so a 5-level walk reaches it in at most four steps.
const frontSteps = 4

// frontEntry is one remembered Permission-Entry span. size 0 marks an
// empty entry (no VA falls in an empty span).
type frontEntry struct {
	base  addr.VA
	size  uint64
	gen   uint64
	perm  addr.Perm
	n     int
	lines [frontSteps]*pteBlock
}

// frontTable is one PE's entries, refilled round robin.
type frontTable struct {
	e    [frontWays]frontEntry
	next int
}

// front returns pe's table, growing the set on a PE's first access.
func (b *peBackend) front(pe int) *frontTable {
	if pe >= len(b.fronts) {
		b.fronts = append(b.fronts, make([]frontTable, pe+1-len(b.fronts))...)
	}
	return &b.fronts[pe]
}

// slot returns the entry whose span holds va, or else the next entry
// round robin, for a record to replace. Spans of one table are
// disjoint, so at most one entry holds va.
func (t *frontTable) slot(va addr.VA) *frontEntry {
	for i := range t.e {
		if e := &t.e[i]; uint64(va)-uint64(e.base) < e.size {
			return e
		}
	}
	e := &t.e[t.next]
	t.next = (t.next + 1) % frontWays
	return e
}

// record fills e from a just-completed WalkPE walk when every step's
// line is cacheable and still resident — an eviction between steps of
// the same walk (a small or direct-mapped AVC) leaves it as it was.
func (e *frontEntry) record(w *pagetable.WalkResult, avc *PTECache) {
	if len(w.Steps) > frontSteps {
		return
	}
	var lines [frontSteps]*pteBlock
	for i, st := range w.Steps {
		if lines[i] = avc.resident(st.EntryPA, st.Level); lines[i] == nil {
			return
		}
	}
	*e = frontEntry{base: w.MapBase, size: w.MapSize, gen: avc.gen, perm: w.Perm, n: len(w.Steps), lines: lines}
}

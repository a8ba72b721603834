package pagetable

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/dvm-sim/dvm/internal/addr"
)

// refCompact is a plain in-place post-order compaction of a valid
// table, descending into every child: the reference
// TestCompactedMatchesInPlace checks Compacted against.
func (t *Table) refCompact() {
	t.refCompactNode(t.root, 0)
}

func (t *Table) refCompactNode(n *Node, base addr.VA) {
	span := entrySpan(n.Level)
	for i := 0; i < EntriesPerNode; i++ {
		e := n.entry(i)
		if e.Kind() != EntryTable {
			continue
		}
		eBase := base + addr.VA(uint64(i)*span)
		child := n.link(e)
		t.refCompactNode(child, eBase)
		s, _ := t.rangeSummary(child, eBase, 0, EntriesPerNode)
		if s.empty {
			n.set(i, 0)
			continue
		}
		if !s.identity || n.Level < 2 {
			continue
		}
		perms, ok := t.groupPerms(child, eBase)
		if !ok {
			continue
		}
		n.setPE(i, perms)
	}
}

// deepClone copies every node of t, keeping node PAs and the allocator.
func (t *Table) deepClone() *Table {
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		c := cloneNode(n)
		for k, kid := range c.kids {
			if kid != nil {
				c.kids[k] = cp(kid)
			}
		}
		return c
	}
	return &Table{cfg: t.cfg, root: cp(t.root), nextPA: t.nextPA}
}

// tableView is everything about a table the Compacted checks compare.
type tableView struct {
	stats  SizeStats
	pages  uint64 // FNV-1a digest of ForEachPage's (va, pa, perm) stream
	npages int
	err    error // SizeStats' and ForEachPage's errors
	nextPA uint64
	walks  []WalkResult
}

func viewOf(tbl *Table, probes []addr.VA) tableView {
	stats, statsErr := tbl.SizeStats()
	v := tableView{stats: stats, nextPA: tbl.nextPA}
	h := fnv.New64a()
	var buf [17]byte
	pagesErr := tbl.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
		v.npages++
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(va) >> (8 * i))
			buf[8+i] = byte(uint64(pa) >> (8 * i))
		}
		buf[16] = byte(perm)
		h.Write(buf[:])
	})
	v.pages = h.Sum64()
	v.err = errors.Join(statsErr, pagesErr)
	for _, va := range probes {
		v.walks = append(v.walks, tbl.Walk(va))
	}
	return v
}

// diffViews reports the first difference between two views.
func diffViews(t testing.TB, what string, got, want tableView, probes []addr.VA) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("%s: errors %v, want %v", what, got.err, want.err)
	}
	if got.stats != want.stats {
		t.Errorf("%s: SizeStats %+v, want %+v", what, got.stats, want.stats)
	}
	if got.pages != want.pages || got.npages != want.npages {
		t.Errorf("%s: ForEachPage %d pages (digest %#x), want %d (%#x)", what, got.npages, got.pages, want.npages, want.pages)
	}
	if got.nextPA != want.nextPA {
		t.Errorf("%s: nextPA %#x, want %#x", what, got.nextPA, want.nextPA)
	}
	for i, va := range probes {
		g, w := got.walks[i], want.walks[i]
		same := g.Outcome == w.Outcome && g.Fault == w.Fault && g.PA == w.PA && g.Perm == w.Perm &&
			g.Identity == w.Identity && g.MapBase == w.MapBase && g.MapSize == w.MapSize && len(g.Steps) == len(w.Steps)
		for j := 0; same && j < len(g.Steps); j++ {
			same = g.Steps[j] == w.Steps[j]
		}
		if !same {
			t.Errorf("%s: walk %#x = %+v, want %+v", what, uint64(va), g, w)
			return
		}
	}
}

// checkCompacted checks src.Compacted() against cloning src and running
// the reference compaction on the clone, and that neither src nor its
// walks change — not even when entries of the derived copy are then
// overwritten.
func checkCompacted(t testing.TB, src *Table, probes []addr.VA) {
	t.Helper()
	before := viewOf(src, probes)
	if before.err != nil {
		t.Fatal(before.err)
	}
	ref := src.deepClone()
	ref.refCompact()
	want := viewOf(ref, probes)

	got := mustCompacted(t, src)
	diffViews(t, "Compacted", viewOf(got, probes), want, probes)
	checkNoDeadKids(t, "Compacted", got)
	diffViews(t, "source after Compacted", viewOf(src, probes), before, probes)

	// Overwrite entries of the copy with CorruptEntry, the one mutator
	// a built table has, level by level from the leaves up (so no later
	// descent crosses an entry already overwritten): every kind of entry
	// the copy holds is replaced, in nodes and side slices that must be
	// the copy's own.
	overwritten := 0
	for level := 1; level <= src.cfg.Levels; level++ {
		for i, va := range probes {
			raw := (uint64(i)<<3 | uint64(level)) * 0x9E3779B97F4A7C15
			if got.CorruptEntry(va, level, raw) == nil {
				overwritten++
			}
		}
	}
	if overwritten == 0 {
		t.Error("no entry of the Compacted copy was overwritten")
	}
	diffViews(t, "source after mutating its Compacted copy", viewOf(src, probes), before, probes)
}

// checkNoDeadKids checks that every child slot still holding a node
// belongs to a live table entry: the non-nil kids reachable from the
// root are exactly the table's nodes below it, so a subtree folded into
// a PE or pruned as empty is no longer kept alive.
func checkNoDeadKids(t testing.TB, what string, tbl *Table) {
	t.Helper()
	var count func(n *Node) int
	count = func(n *Node) int {
		c := 0
		for _, kid := range n.kids {
			if kid != nil {
				c += 1 + count(kid)
			}
		}
		return c
	}
	if got, want := count(tbl.root), mustStats(t, tbl).Nodes-1; got != want {
		t.Errorf("%s: %d non-nil kids reachable from the root, want %d (one per node below it)", what, got, want)
	}
}

func TestCompactedMatchesInPlace(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tbl, ref := randomLayout(rng)
			var probes []addr.VA
			for va := range ref {
				probes = append(probes, va)
			}
			slices.Sort(probes)
			for i := range probes {
				probes[i] += addr.VA(rng.Intn(4096))
			}
			for i := 0; i < 50; i++ {
				probes = append(probes, addr.VA(uint64(rng.Intn(1<<16))<<12))
			}
			checkCompacted(t, tbl, probes)
			// A source that already holds PEs: its PEPerms must be
			// copied, not shared.
			checkCompacted(t, mustCompacted(t, tbl), probes)
		}
	})
	t.Run("five-level", func(t *testing.T) {
		tbl := MustNew(Config{Levels: 5})
		hi := uint64(1) << 50
		mapIdentityRegion(t, tbl, hi, 3*addr.PageSize2M, addr.ReadWrite)
		mapIdentityRegion(t, tbl, hi+uint64(addr.PageSize1G), 1<<30, addr.ReadOnly)
		mapIdentityRegion(t, tbl, 0x400000, 40*addr.PageSize4K, addr.ReadExecute)
		if err := tbl.Map(addr.VA(hi+8*addr.PageSize2M), 0x7000_0000, addr.ReadWrite, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetPE(addr.VA(hi+1<<40), 3, make([]addr.Perm, DefaultPEFields)); err != nil {
			t.Fatal(err)
		}
		var probes []addr.VA
		for _, base := range []uint64{hi, hi + uint64(addr.PageSize1G), 0x400000, hi + 8*addr.PageSize2M, hi + 1<<40} {
			for off := uint64(0); off < 4*addr.PageSize2M; off += 97 * addr.PageSize4K {
				probes = append(probes, addr.VA(base+off))
			}
		}
		checkCompacted(t, tbl, probes)
	})
}

func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry(0)); got != EntryBytes {
		t.Errorf("unsafe.Sizeof(Entry(0)) = %d, want EntryBytes = %d", got, EntryBytes)
	}
}

// TestNodeFootprint pins what a simulated 4 KB page-table page costs on
// the Go heap. A level-1 page one contiguous run fills is its node header
// alone, in the 96-byte size class; the 4 KB of entry words (pointer-free,
// so the collector never scans them) exist only for interior pages and
// for level-1 pages a write moved to words state. The runtime and the
// test framework allocate a few KB of their own now and then, which only
// adds to TotalAlloc, so each cost is the least of three builds.
func TestNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want <= 96", got)
	}
	const gb = 1 << 30
	perNode := func(build func(*Table) error) uint64 {
		var least uint64
		for trial := 0; trial < 3; trial++ {
			tbl := MustNew(Config{})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := build(tbl); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := (after.TotalAlloc - before.TotalAlloc) / uint64(mustStats(t, tbl).Nodes)
			if trial == 0 || got < least {
				least = got
			}
		}
		return least
	}
	// Identity at 4 KB: every level-1 page is one run. A node costs the
	// 96-byte header plus its share of each level-2 page's words and
	// kids, about 121 B with or without -race; 4 KB of words leaking back
	// into the run pages would cost some 4 KB more, so 256 B tells the
	// two apart with room for stray runtime allocations.
	if got := perNode(func(tbl *Table) error {
		return tbl.MapRange(addr.VRange{Start: 0, Size: gb}, 0, addr.ReadWrite, addr.PageSize4K)
	}); got > 256 {
		t.Errorf("mapping 1 GB identity at 4 KB allocated %d B per page-table node, want <= 256", got)
	}
	// Frames in descending order break every run at its second page:
	// each level-1 page then also holds its 4 KB of words.
	if got := perNode(func(tbl *Table) error {
		for off := uint64(0); off < gb; off += addr.PageSize4K {
			if err := tbl.Map(addr.VA(off), addr.PA(gb-addr.PageSize4K-off), addr.ReadWrite, addr.PageSize4K); err != nil {
				return err
			}
		}
		return nil
	}); got > NodeBytes+256 {
		t.Errorf("mapping 1 GB at 4 KB in descending frames allocated %d B per page-table node, want <= %d", got, NodeBytes+256)
	}
}

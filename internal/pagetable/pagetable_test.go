package pagetable

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// mustCompacted returns tbl.Compacted(), failing the test on an error.
func mustCompacted(t testing.TB, tbl *Table) *Table {
	t.Helper()
	c, err := tbl.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustStats returns tbl.SizeStats(), failing the test on an error.
func mustStats(t testing.TB, tbl *Table) SizeStats {
	t.Helper()
	s, err := tbl.SizeStats()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPECount fails the test unless tbl holds want Permission Entries.
func checkPECount(t *testing.T, tbl *Table, want int) {
	t.Helper()
	if got := mustStats(t, tbl).PECount; got != want {
		t.Fatalf("compacted table holds %d PEs, want %d", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Levels: 3}); err == nil {
		t.Error("Levels=3 should be rejected")
	}
	if _, err := New(Config{PEFields: 7}); err == nil {
		t.Error("PEFields=7 (does not divide 512) should be rejected")
	}
	if _, err := New(Config{Levels: 5, PEFields: 32}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	tbl := MustNew(Config{})
	if tbl.Config().Levels != 4 || tbl.Config().PEFields != 16 {
		t.Errorf("defaults not applied: %+v", tbl.Config())
	}
}

func TestMapAndWalk4K(t *testing.T) {
	tbl := newTable(t)
	va, pa := addr.VA(0x40001000), addr.PA(0x7fff2000)
	if err := tbl.Map(va, pa, addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va + 0x123)
	if r.Outcome != WalkLeaf {
		t.Fatalf("Outcome = %v, want leaf", r.Outcome)
	}
	if r.PA != pa+0x123 {
		t.Errorf("PA = %#x, want %#x", uint64(r.PA), uint64(pa)+0x123)
	}
	if r.Perm != addr.ReadWrite {
		t.Errorf("Perm = %v", r.Perm)
	}
	if r.Identity {
		t.Error("non-identity mapping reported identity")
	}
	if r.MapSize != addr.PageSize4K || r.MapBase != va {
		t.Errorf("MapBase/MapSize = %#x/%d", uint64(r.MapBase), r.MapSize)
	}
	if len(r.Steps) != 4 {
		t.Errorf("walk steps = %d, want 4", len(r.Steps))
	}
	for i, s := range r.Steps {
		if want := 4 - i; s.Level != want {
			t.Errorf("step %d level = %d, want %d", i, s.Level, want)
		}
	}
}

func TestWalkFaultOnUnmapped(t *testing.T) {
	tbl := newTable(t)
	r := tbl.Walk(0xdeadbeef000)
	if r.Outcome != WalkFault {
		t.Fatalf("Outcome = %v, want fault", r.Outcome)
	}
	if len(r.Steps) != 1 {
		t.Errorf("empty root entry should fault after 1 step, got %d", len(r.Steps))
	}
}

func TestIdentityMappingDetected(t *testing.T) {
	tbl := newTable(t)
	va := addr.VA(0x80000000)
	if err := tbl.Map(va, addr.PA(va), addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va)
	if !r.Identity {
		t.Error("identity mapping not detected")
	}
}

func TestMapHugePages(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Map(addr.VA(addr.PageSize2M), addr.PA(3*addr.PageSize2M), addr.ReadWrite, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(addr.VA(addr.PageSize1G), addr.PA(addr.PageSize1G), addr.ReadExecute, addr.PageSize1G); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(addr.VA(addr.PageSize2M) + 0x1234)
	if r.Outcome != WalkLeaf || r.PA != addr.PA(3*addr.PageSize2M)+0x1234 || r.MapSize != addr.PageSize2M {
		t.Errorf("2M walk wrong: %+v", r)
	}
	if len(r.Steps) != 3 {
		t.Errorf("2M walk steps = %d, want 3", len(r.Steps))
	}
	r = tbl.Walk(addr.VA(addr.PageSize1G) + 0x555555)
	if r.Outcome != WalkLeaf || !r.Identity || r.MapSize != addr.PageSize1G {
		t.Errorf("1G walk wrong: %+v", r)
	}
	if len(r.Steps) != 2 {
		t.Errorf("1G walk steps = %d, want 2", len(r.Steps))
	}
}

func TestMapRejectsMisaligned(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Map(0x1001, 0x2000, addr.ReadWrite, addr.PageSize4K); err == nil {
		t.Error("misaligned VA accepted")
	}
	if err := tbl.Map(0x1000, 0x2001, addr.ReadWrite, addr.PageSize4K); err == nil {
		t.Error("misaligned PA accepted")
	}
	if err := tbl.Map(0x1000, 0x2000, addr.ReadWrite, 12345); err == nil {
		t.Error("bad page size accepted")
	}
	if err := tbl.Map(addr.MaxVA, 0, addr.ReadWrite, addr.PageSize4K); err == nil {
		t.Error("out-of-range VA accepted")
	}
}

func TestMapConflicts(t *testing.T) {
	tbl := newTable(t)
	if err := tbl.Map(0, 0, addr.ReadWrite, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	// A 4K map under an existing 2M leaf must fail.
	if err := tbl.Map(0x1000, 0x1000, addr.ReadWrite, addr.PageSize4K); err == nil {
		t.Error("mapping under a huge leaf should fail")
	}
	// A 2M map over existing 4K mappings must fail (subtree exists).
	if err := tbl.Map(addr.VA(addr.PageSize1G), addr.PA(addr.PageSize1G), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(addr.VA(addr.PageSize1G), addr.PA(addr.PageSize1G), addr.ReadWrite, addr.PageSize2M); err == nil {
		t.Error("2M map over an existing subtree should fail")
	}
}

func TestMapThroughPERejected(t *testing.T) {
	// A map into the range of a Permission Entry must fail — even into
	// one of its NoPerm fields — and leave the PE and its walks as they
	// were: a table is never changed once compacted.
	tbl := newTable(t)
	base := uint64(addr.PageSize1G)
	mapIdentityRegion(t, tbl, base, 128<<10, addr.ReadWrite) // one field
	tbl = mustCompacted(t, tbl)
	probes := []addr.VA{addr.VA(base), addr.VA(base + 0x5000), addr.VA(base + 128<<10)}
	before := make([]WalkResult, len(probes))
	for i, va := range probes {
		before[i] = tbl.Walk(va)
	}
	if before[0].Outcome != WalkPE {
		t.Fatalf("compacted field walks as %v, want a PE", before[0].Outcome)
	}
	stats := mustStats(t, tbl)
	for _, size := range []uint64{addr.PageSize4K, addr.PageSize2M} {
		va := addr.VA(addr.AlignDown(base+128<<10, size))
		if err := tbl.Map(va, addr.PA(0x7000000), addr.ReadOnly, size); err == nil {
			t.Errorf("%d-byte map into a PE-covered range accepted", size)
		}
	}
	if got := mustStats(t, tbl); got != stats {
		t.Errorf("rejected maps changed the table: %+v, want %+v", got, stats)
	}
	for i, va := range probes {
		if got := tbl.Walk(va); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("walk %#x after rejected maps = %+v, want %+v", uint64(va), got, before[i])
		}
	}
}

func TestMapRange(t *testing.T) {
	tbl := newTable(t)
	r := addr.VRange{Start: 0x100000, Size: 16 * addr.PageSize4K}
	if err := tbl.MapRange(r, addr.PA(r.Start), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < r.Size; off += addr.PageSize4K {
		pa, perm, ok := tbl.Lookup(r.Start + addr.VA(off))
		if !ok || pa != addr.PA(r.Start)+addr.PA(off) || perm != addr.ReadWrite {
			t.Fatalf("lookup at +%#x: pa=%#x perm=%v ok=%v", off, uint64(pa), perm, ok)
		}
	}
}

// mapIdentityRegion is a test helper: map [start, start+size) identity with
// 4K pages.
func mapIdentityRegion(t *testing.T, tbl *Table, start, size uint64, perm addr.Perm) {
	t.Helper()
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(start), Size: size}, addr.PA(start), perm, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
}

func TestCompactCreatesL2PE(t *testing.T) {
	tbl := newTable(t)
	// Map an identity 2 MB region, uniform RW: should fold to one L2 PE.
	base := uint64(addr.PageSize1G) // aligned
	mapIdentityRegion(t, tbl, base, uint64(addr.PageSize2M), addr.ReadWrite)
	before := mustStats(t, tbl)
	if before.NodesPerLevel[1] != 1 {
		t.Fatalf("expected 1 L1 node before compaction, got %d", before.NodesPerLevel[1])
	}
	tbl = mustCompacted(t, tbl)
	after := mustStats(t, tbl)
	if after.NodesPerLevel[1] != 0 {
		t.Errorf("L1 node not freed: %d", after.NodesPerLevel[1])
	}
	if after.PECount != 1 {
		t.Errorf("PECount = %d", after.PECount)
	}
	// Walks must still succeed, now terminating at the PE in 3 steps.
	r := tbl.Walk(addr.VA(base + 0x12345))
	if r.Outcome != WalkPE || !r.Identity || r.Perm != addr.ReadWrite {
		t.Fatalf("post-compact walk: %+v", r)
	}
	if r.PA != addr.PA(base+0x12345) {
		t.Errorf("PE walk PA = %#x", uint64(r.PA))
	}
	if len(r.Steps) != 3 {
		t.Errorf("PE walk steps = %d, want 3", len(r.Steps))
	}
	if r.MapSize != uint64(addr.PageSize2M)/16 {
		t.Errorf("PE field size = %d, want 128 KB", r.MapSize)
	}
}

func TestCompactPartialRegionUses00Fields(t *testing.T) {
	// Paper: "If region 3 is replaced by two adjacent 128 KB regions at
	// the start of the mapped VA range with the rest unmapped, we could
	// still use an L2PE ... with 00 permissions for the rest."
	tbl := newTable(t)
	base := uint64(addr.PageSize1G)
	mapIdentityRegion(t, tbl, base, 2*128<<10, addr.ReadOnly)
	tbl = mustCompacted(t, tbl)
	checkPECount(t, tbl, 1)
	r := tbl.Walk(addr.VA(base))
	if r.Outcome != WalkPE || r.Perm != addr.ReadOnly {
		t.Fatalf("walk into mapped field: %+v", r)
	}
	// Access beyond the two mapped fields must fault.
	r = tbl.Walk(addr.VA(base + 3*128<<10))
	if r.Outcome != WalkFault {
		t.Fatalf("walk into 00 field should fault, got %+v", r)
	}
}

func TestCompactNonUniformFieldStaysExpanded(t *testing.T) {
	tbl := newTable(t)
	base := uint64(addr.PageSize1G)
	// First 4K page RO, rest of first 128K field RW: field not uniform,
	// so no L2 PE may be created.
	mapIdentityRegion(t, tbl, base, uint64(addr.PageSize4K), addr.ReadOnly)
	mapIdentityRegion(t, tbl, base+uint64(addr.PageSize4K), 128<<10-uint64(addr.PageSize4K), addr.ReadWrite)
	tbl = mustCompacted(t, tbl)
	checkPECount(t, tbl, 0)
	r := tbl.Walk(addr.VA(base))
	if r.Outcome != WalkLeaf || r.Perm != addr.ReadOnly {
		t.Fatalf("walk: %+v", r)
	}
}

func TestCompactNonIdentityNotFolded(t *testing.T) {
	tbl := newTable(t)
	base := uint64(addr.PageSize1G)
	// Uniform permissions but PA != VA: must not fold.
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: uint64(addr.PageSize2M)},
		addr.PA(base+uint64(addr.PageSize2M)), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	checkPECount(t, mustCompacted(t, tbl), 0)
}

func TestCompactL3PE(t *testing.T) {
	tbl := newTable(t)
	// Identity map a full 1 GB with 2 MB leaves: folds to a single L3 PE.
	base := uint64(addr.PageSize1G) * 4
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: uint64(addr.PageSize1G)},
		addr.PA(base), addr.ReadWrite, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	tbl = mustCompacted(t, tbl)
	checkPECount(t, tbl, 1)
	r := tbl.Walk(addr.VA(base + 123456789))
	if r.Outcome != WalkPE || len(r.Steps) != 2 {
		t.Fatalf("L3 PE walk: %+v", r)
	}
	if r.MapSize != uint64(addr.PageSize1G)/16 {
		t.Errorf("L3 PE field = %d, want 64 MB", r.MapSize)
	}
}

func TestCompactHierarchical(t *testing.T) {
	// 1 GB identity-mapped with 4K pages: L1 tables fold into L2 PEs,
	// which then fold into a single L3 PE.
	tbl := newTable(t)
	base := uint64(addr.PageSize1G) * 8
	// Use 2M leaves for speed at the bottom half, 4K for one 2M region
	// to prove mixed granularity folds too.
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: uint64(addr.PageSize1G) - uint64(addr.PageSize2M)},
		addr.PA(base), addr.ReadWrite, addr.PageSize2M); err != nil {
		t.Fatal(err)
	}
	last2M := base + uint64(addr.PageSize1G) - uint64(addr.PageSize2M)
	mapIdentityRegion(t, tbl, last2M, uint64(addr.PageSize2M), addr.ReadWrite)
	tbl = mustCompacted(t, tbl)
	r := tbl.Walk(addr.VA(base + 999999999))
	if r.Outcome != WalkPE || len(r.Steps) != 2 {
		t.Fatalf("hierarchical fold failed: %+v", r)
	}
	s := mustStats(t, tbl)
	if s.Nodes != 2 { // root + one L3 node holding the PE
		t.Errorf("Nodes = %d, want 2", s.Nodes)
	}
}

func TestCompactIdempotent(t *testing.T) {
	tbl := newTable(t)
	mapIdentityRegion(t, tbl, uint64(addr.PageSize1G), uint64(addr.PageSize2M)*3, addr.ReadWrite)
	once := mustCompacted(t, tbl)
	twice := mustCompacted(t, once)
	if s1, s2 := mustStats(t, once), mustStats(t, twice); s1 != s2 {
		t.Errorf("stats changed on idempotent compact: %+v vs %+v", s1, s2)
	}
	if d1, d2 := dumpText(once), dumpText(twice); d1 != d2 || once.nextPA != twice.nextPA {
		t.Errorf("compacting twice changed the table:\n%s\nwant\n%s", d2, d1)
	}
}

func TestTable1Shape(t *testing.T) {
	// A multi-hundred-MB identity heap: PE tables must be dramatically
	// smaller and L1 fraction of the standard table must be ~97%+.
	tbl := newTable(t)
	heap := uint64(256 << 20) // 256 MB
	base := uint64(addr.PageSize1G)
	mapIdentityRegion(t, tbl, base, heap, addr.ReadWrite)
	std := mustStats(t, tbl)
	if std.L1Fraction < 0.97 {
		t.Errorf("standard table L1 fraction = %.3f, want > 0.97", std.L1Fraction)
	}
	pe := mustStats(t, mustCompacted(t, tbl))
	if pe.Bytes*20 > std.Bytes {
		t.Errorf("PE table %d B not ≪ standard %d B", pe.Bytes, std.Bytes)
	}
	if pe.MappedPages != std.MappedPages {
		t.Errorf("compaction changed mapped pages: %d vs %d", pe.MappedPages, std.MappedPages)
	}
	if pe.IdentityPages != pe.MappedPages {
		t.Errorf("identity pages %d != mapped %d", pe.IdentityPages, pe.MappedPages)
	}
}

func TestSetPE(t *testing.T) {
	tbl := newTable(t)
	perms := make([]addr.Perm, 16)
	for i := range perms {
		perms[i] = addr.ReadWrite
	}
	if err := tbl.SetPE(addr.VA(addr.PageSize2M)*5, 2, perms); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(addr.VA(addr.PageSize2M)*5 + 0x1000)
	if r.Outcome != WalkPE || r.Perm != addr.ReadWrite {
		t.Fatalf("walk: %+v", r)
	}
	if err := tbl.SetPE(0x1000, 2, perms); err == nil {
		t.Error("misaligned SetPE accepted")
	}
	if err := tbl.SetPE(0, 2, perms[:3]); err == nil {
		t.Error("wrong field count accepted")
	}
	if err := tbl.SetPE(0, 1, perms); err == nil {
		t.Error("level-1 PE accepted")
	}
}

func TestFiveLevelTable(t *testing.T) {
	tbl := MustNew(Config{Levels: 5})
	va := addr.VA(uint64(1) << 50) // needs level 5
	if err := tbl.Map(va, addr.PA(va), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	r := tbl.Walk(va)
	if r.Outcome != WalkLeaf || !r.Identity {
		t.Fatalf("5-level walk: %+v", r)
	}
	if len(r.Steps) != 5 {
		t.Errorf("steps = %d, want 5", len(r.Steps))
	}
}

func TestPEFieldsVariants(t *testing.T) {
	for _, fields := range []int{4, 8, 16, 32, 64} {
		tbl := MustNew(Config{PEFields: fields})
		base := uint64(addr.PageSize1G)
		mapIdentityRegion(t, tbl, base, uint64(addr.PageSize2M), addr.ReadWrite)
		tbl = mustCompacted(t, tbl)
		if n := mustStats(t, tbl).PECount; n != 1 {
			t.Errorf("fields=%d: Compacted holds %d PEs, want 1", fields, n)
		}
		r := tbl.Walk(addr.VA(base + 0x1000))
		if r.Outcome != WalkPE {
			t.Errorf("fields=%d: walk %+v", fields, r)
		}
		if want := uint64(addr.PageSize2M) / uint64(fields); r.MapSize != want {
			t.Errorf("fields=%d: field size %d, want %d", fields, r.MapSize, want)
		}
	}
}

func TestForEachPage(t *testing.T) {
	tbl := newTable(t)
	mapIdentityRegion(t, tbl, 0x400000, 3*uint64(addr.PageSize4K), addr.ReadOnly)
	var pages []addr.VA
	if err := tbl.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
		pages = append(pages, va)
		if addr.PA(va) != pa || perm != addr.ReadOnly {
			t.Errorf("page %#x: pa=%#x perm=%v", uint64(va), uint64(pa), perm)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("pages = %d, want 3", len(pages))
	}
}

// refPage is one page of a flat reference mapping.
type refPage struct {
	pa   addr.PA
	perm addr.Perm
}

// randomLayout maps random identity regions and scattered non-identity
// pages into a fresh table, returning it with the flat reference map of
// what it maps.
func randomLayout(rng *rand.Rand) (*Table, map[addr.VA]refPage) {
	tbl := MustNew(Config{})
	ref := map[addr.VA]refPage{}
	perms := []addr.Perm{addr.ReadOnly, addr.ReadWrite, addr.ReadExecute}
	for i := 0; i < 20; i++ {
		perm := perms[rng.Intn(len(perms))]
		if rng.Intn(2) == 0 {
			base := uint64(rng.Intn(64)) << 21 // 2M-aligned within 128 MB
			npages := rng.Intn(80) + 1
			for p := 0; p < npages; p++ {
				va := addr.VA(base + uint64(p)*addr.PageSize4K)
				if _, dup := ref[va]; dup {
					continue
				}
				if err := tbl.Map(va, addr.PA(va), perm, addr.PageSize4K); err != nil {
					continue
				}
				ref[va] = refPage{addr.PA(va), perm}
			}
		} else {
			va := addr.VA(uint64(rng.Intn(1<<15)) << 12)
			pa := addr.PA(uint64(rng.Intn(1<<15))<<12 + 1<<33)
			if _, dup := ref[va]; dup {
				continue
			}
			if err := tbl.Map(va, pa, perm, addr.PageSize4K); err != nil {
				continue
			}
			ref[va] = refPage{pa, perm}
		}
	}
	return tbl, ref
}

// TestWalkMatchesReference drives random mapping operations and checks the
// walker against a flat reference map, before and after compaction — the
// key functional-correctness property of the whole package.
func TestWalkMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, ref := randomLayout(rng)
		check := func() bool {
			for va, want := range ref {
				pa, perm, ok := tbl.Lookup(va + addr.VA(rng.Intn(4096)))
				if !ok || pa.PageDown() != want.pa || perm != want.perm {
					t.Logf("seed %d: lookup %#x = (%#x,%v,%v), want (%#x,%v)",
						seed, uint64(va), uint64(pa), perm, ok, uint64(want.pa), want.perm)
					return false
				}
			}
			// Random unmapped probes.
			for i := 0; i < 50; i++ {
				va := addr.VA(uint64(rng.Intn(1<<16)) << 12)
				_, known := ref[va]
				_, _, ok := tbl.Lookup(va)
				if ok != known {
					t.Logf("seed %d: probe %#x mapped=%v want %v", seed, uint64(va), ok, known)
					return false
				}
			}
			return true
		}
		if !check() {
			return false
		}
		c, err := tbl.Compacted()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		tbl = c
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCompactPreservesPages asserts the page-level view is identical before
// and after compaction for a mixed layout.
func TestCompactPreservesPages(t *testing.T) {
	tbl := newTable(t)
	base := uint64(addr.PageSize1G)
	mapIdentityRegion(t, tbl, base, uint64(addr.PageSize2M), addr.ReadWrite)
	mapIdentityRegion(t, tbl, base+uint64(addr.PageSize2M), 128<<10, addr.ReadOnly)
	// Non-identity island.
	if err := tbl.Map(addr.VA(base+8*uint64(addr.PageSize2M)), addr.PA(0x123456000), addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	collect := func() map[addr.VA]string {
		m := map[addr.VA]string{}
		if err := tbl.ForEachPage(func(va addr.VA, pa addr.PA, perm addr.Perm) {
			m[va] = perm.String() + ":" + addr.PRange{Start: pa, Size: addr.PageSize4K}.String()
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := collect()
	tbl = mustCompacted(t, tbl)
	after := collect()
	if len(before) != len(after) {
		t.Fatalf("page count changed: %d -> %d", len(before), len(after))
	}
	for va, s := range before {
		if after[va] != s {
			t.Errorf("page %#x changed: %s -> %s", uint64(va), s, after[va])
		}
	}
}

func BenchmarkWalk4K(b *testing.B) {
	tbl := MustNew(Config{})
	base := uint64(addr.PageSize1G)
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 64 << 20}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		b.Fatal(err)
	}
	var res WalkResult
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := addr.VA(base + uint64(rng.Intn(64<<20)))
		tbl.WalkInto(va, &res)
		if res.Outcome == WalkFault {
			b.Fatal("unexpected fault")
		}
	}
}

func BenchmarkWalkPE(b *testing.B) {
	tbl := MustNew(Config{})
	base := uint64(addr.PageSize1G)
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 64 << 20}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		b.Fatal(err)
	}
	tbl = mustCompacted(b, tbl)
	var res WalkResult
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := addr.VA(base + uint64(rng.Intn(64<<20)))
		tbl.WalkInto(va, &res)
		if res.Outcome != WalkPE {
			b.Fatal("expected PE hit")
		}
	}
}

// TestLookupZeroAlloc pins Lookup, which osmodel calls once per huge-page
// expanse while building a THP table, to a walk whose steps stay on the
// stack: translating, missing and walking a 5-level table allocate
// nothing.
func TestLookupZeroAlloc(t *testing.T) {
	for _, levels := range []int{4, 5} {
		tbl := MustNew(Config{Levels: levels})
		if err := tbl.MapRange(addr.VRange{Start: 0x20_0000, Size: 16 * addr.PageSize4K}, 0x20_0000, addr.ReadWrite, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
		for _, va := range []addr.VA{0x20_3000, 0x40_0000, 0xdead_0000_0000} {
			if n := testing.AllocsPerRun(100, func() { tbl.Lookup(va) }); n != 0 {
				t.Errorf("%d levels: Lookup(%#x) allocates %v times per call, want 0", levels, uint64(va), n)
			}
		}
	}
}

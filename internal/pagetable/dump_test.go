package pagetable

import (
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

func TestDumpRendersRegions(t *testing.T) {
	tbl := MustNew(Config{})
	base := uint64(addr.PageSize1G)
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base), Size: 256 << 10}, addr.PA(base), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(base + 256<<10), Size: 128 << 10}, addr.PA(base+256<<10), addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Before compaction: leaf runs with both permissions, coalesced.
	if !strings.Contains(out, "leaf(identity)") {
		t.Errorf("identity leaves not marked:\n%s", out)
	}
	if !strings.Contains(out, "rw") || !strings.Contains(out, "r-") {
		t.Errorf("permissions missing:\n%s", out)
	}
	if strings.Count(out, "leaf(identity)") != 2 {
		t.Errorf("adjacent same-perm leaves not coalesced into 2 runs:\n%s", out)
	}

	tbl = mustCompacted(t, tbl)
	b.Reset()
	if err := tbl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "PE") {
		t.Errorf("PE missing after compaction:\n%s", out)
	}
	if !strings.Contains(out, "rw×2 r-×1") {
		t.Errorf("PE field summary wrong:\n%s", out)
	}
}

func TestDumpNonIdentityLeaf(t *testing.T) {
	tbl := MustNew(Config{})
	if err := tbl.Map(0x1000, 0x99000, addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "leaf(identity)") {
		t.Errorf("non-identity leaf marked identity:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "L1 leaf") {
		t.Errorf("leaf missing:\n%s", b.String())
	}
}

func TestPEFieldString(t *testing.T) {
	perms := []addr.Perm{addr.ReadWrite, addr.ReadWrite, addr.NoPerm, addr.ReadOnly}
	if got := peFieldString(perms); got != "rw×2 --×1 r-×1" {
		t.Errorf("peFieldString = %q", got)
	}
}

func TestFiveLevelCompaction(t *testing.T) {
	// A 5-level table must fold identity regions exactly like a 4-level
	// one, and high (L5-reachable) addresses must still walk.
	tbl := MustNew(Config{Levels: 5})
	high := uint64(1) << 50
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(high), Size: uint64(addr.PageSize2M)}, addr.PA(high), addr.ReadWrite, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	tbl = mustCompacted(t, tbl)
	checkPECount(t, tbl, 1)
	r := tbl.Walk(addr.VA(high + 12345))
	if r.Outcome != WalkPE || !r.Identity {
		t.Fatalf("5-level PE walk: %+v", r)
	}
	if len(r.Steps) != 4 { // L5, L4, L3, L2(PE)
		t.Errorf("steps = %d, want 4", len(r.Steps))
	}
}

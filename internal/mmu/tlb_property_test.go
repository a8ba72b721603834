package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
)

// refTLB is an oracle: an unbounded map plus an exact LRU list per set,
// against which the TLB implementation is checked operation by operation.
type refTLB struct {
	nsets, ways int
	pageSize    uint64
	sets        [][]refEntry // MRU first
}

type refEntry struct {
	vpn  uint64
	pfn  uint64
	perm addr.Perm
}

func newRefTLB(entries, ways int, pageSize uint64) *refTLB {
	if ways == 0 {
		ways = entries
	}
	return &refTLB{nsets: entries / ways, ways: ways, pageSize: pageSize, sets: make([][]refEntry, entries/ways)}
}

func (r *refTLB) lookup(va addr.VA) (addr.PA, addr.Perm, bool) {
	vpn := uint64(va) / r.pageSize
	set := r.sets[vpn%uint64(r.nsets)]
	for i, e := range set {
		if e.vpn == vpn {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = e
			return addr.PA(e.pfn*r.pageSize + uint64(va)%r.pageSize), e.perm, true
		}
	}
	return 0, addr.NoPerm, false
}

func (r *refTLB) insert(base addr.VA, pa addr.PA, perm addr.Perm) {
	vpn := uint64(base) / r.pageSize
	si := vpn % uint64(r.nsets)
	set := r.sets[si]
	for i, e := range set {
		if e.vpn == vpn {
			copy(set[1:i+1], set[:i])
			set[0] = refEntry{vpn: vpn, pfn: uint64(pa) / r.pageSize, perm: perm}
			return
		}
	}
	e := refEntry{vpn: vpn, pfn: uint64(pa) / r.pageSize, perm: perm}
	set = append([]refEntry{e}, set...)
	if len(set) > r.ways {
		set = set[:r.ways]
	}
	r.sets[si] = set
}

// TestTLBMatchesReferenceLRU drives random lookup/insert sequences against
// the oracle for several geometries.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	f := func(seed int64, geom uint8) bool {
		geometries := []struct{ entries, ways int }{
			{4, 0}, {8, 2}, {16, 4}, {32, 8},
		}
		g := geometries[int(geom)%len(geometries)]
		tlb := MustNewTLB(TLBConfig{Entries: g.entries, Ways: g.ways, PageSize: addr.PageSize4K})
		ref := newRefTLB(g.entries, g.ways, addr.PageSize4K)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			va := addr.VA(uint64(rng.Intn(64)) * addr.PageSize4K)
			if rng.Intn(2) == 0 {
				pa := addr.PA(uint64(rng.Intn(1<<16)) * addr.PageSize4K)
				tlb.Insert(va, pa, addr.ReadWrite)
				ref.insert(va, pa, addr.ReadWrite)
				continue
			}
			probe := va + addr.VA(rng.Intn(4096))
			gotPA, gotPerm, gotHit := tlb.Lookup(probe)
			wantPA, wantPerm, wantHit := ref.lookup(probe)
			if gotHit != wantHit || (gotHit && (gotPA != wantPA || gotPerm != wantPerm)) {
				t.Logf("seed %d step %d: (%#x,%v,%v) want (%#x,%v,%v)",
					seed, step, uint64(gotPA), gotPerm, gotHit, uint64(wantPA), wantPerm, wantHit)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTLBDuplicateInsertNeverSplitsEntry: re-inserting a vpn — with and
// without invalid slots scattered through the set — must update the one
// existing entry in place, never create a second copy. Detected via the
// set's capacity: a 4-entry set holding a duplicated vpn could retain 5
// distinct translations' worth of hits.
func TestTLBDuplicateInsertNeverSplitsEntry(t *testing.T) {
	const ways = 4
	tlb := MustNewTLB(TLBConfig{Entries: ways, PageSize: addr.PageSize4K})
	va := func(i uint64) addr.VA { return addr.VA(i * addr.PageSize4K) }
	pa := func(i uint64) addr.PA { return addr.PA(i * addr.PageSize4K) }

	// Fill the set, then re-insert every vpn with a new translation.
	for i := uint64(0); i < ways; i++ {
		tlb.Insert(va(i), pa(i), addr.ReadOnly)
	}
	for i := uint64(0); i < ways; i++ {
		tlb.Insert(va(i), pa(100+i), addr.ReadWrite)
	}
	for i := uint64(0); i < ways; i++ {
		gotPA, gotPerm, hit := tlb.Lookup(va(i))
		if !hit {
			t.Fatalf("vpn %d evicted by duplicate insert (set split the entry)", i)
		}
		if gotPA != pa(100+i) || gotPerm != addr.ReadWrite {
			t.Errorf("vpn %d: got (%#x,%v), want updated translation (%#x,%v)",
				i, uint64(gotPA), gotPerm, uint64(pa(100+i)), addr.ReadWrite)
		}
	}

	// A full set re-inserted ways times must still hold exactly ways
	// distinct vpns: inserting one new vpn evicts exactly one of them.
	tlb.Insert(va(ways), pa(ways), addr.ReadOnly)
	live := 0
	for i := uint64(0); i <= ways; i++ {
		if _, _, hit := tlb.Lookup(va(i)); hit {
			live++
		}
	}
	if live != ways {
		t.Errorf("set holds %d live vpns, want exactly %d (duplicate corrupted occupancy)", live, ways)
	}

	// White-box: invalidate a slot in the middle of the set, so a valid
	// duplicate sits *after* an invalid slot. A victim search that stops
	// at the first invalid slot would insert a second copy of that vpn
	// here; the duplicate check must win regardless of slot order.
	set := tlb.sets[0]
	set[0] = tlbEntry{}
	dupVPN := set[ways-1].vpn
	tlb.Insert(va(dupVPN), pa(200), addr.ReadOnly)
	copies := 0
	for i := range set {
		if set[i].valid && set[i].vpn == dupVPN {
			copies++
		}
	}
	if copies != 1 {
		t.Errorf("vpn %d cached %d times after insert past an invalid slot, want exactly 1", dupVPN, copies)
	}
	if set[ways-1].pfn != uint64(pa(200))/addr.PageSize4K {
		t.Errorf("duplicate insert did not update the existing entry in place")
	}
}

// TestTLBLRUEvictionOrder fills a set, touches entries in a known order and
// checks the untouched entry — and only it — is evicted, across repeated
// rounds (exact LRU, not approximations).
func TestTLBLRUEvictionOrder(t *testing.T) {
	const ways = 4
	tlb := MustNewTLB(TLBConfig{Entries: ways, PageSize: addr.PageSize4K})
	va := func(i uint64) addr.VA { return addr.VA(i * addr.PageSize4K) }

	for i := uint64(0); i < ways; i++ {
		tlb.Insert(va(i), addr.PA(va(i)), addr.ReadOnly)
	}
	// Refresh 0,1,3 via lookups; 2 becomes LRU.
	for _, i := range []uint64{0, 1, 3} {
		if _, _, hit := tlb.Lookup(va(i)); !hit {
			t.Fatalf("warm-up lookup of vpn %d missed", i)
		}
	}
	tlb.Insert(va(10), addr.PA(va(10)), addr.ReadOnly)
	if _, _, hit := tlb.Lookup(va(2)); hit {
		t.Error("vpn 2 was LRU but survived the eviction")
	}
	for _, i := range []uint64{0, 1, 3, 10} {
		if _, _, hit := tlb.Lookup(va(i)); !hit {
			t.Errorf("vpn %d wrongly evicted (not LRU)", i)
		}
	}
	// Second round: the lookups above refreshed 0,1,3,10 in that order, so
	// the next two evictions must be 0 then 1.
	tlb.Insert(va(11), addr.PA(va(11)), addr.ReadOnly)
	if _, _, hit := tlb.Lookup(va(0)); hit {
		t.Error("vpn 0 was LRU after refresh round but survived")
	}
	tlb.Insert(va(12), addr.PA(va(12)), addr.ReadOnly)
	if _, _, hit := tlb.Lookup(va(1)); hit {
		t.Error("vpn 1 was LRU after refresh round but survived")
	}
	for _, i := range []uint64{3, 10, 11, 12} {
		if _, _, hit := tlb.Lookup(va(i)); !hit {
			t.Errorf("vpn %d wrongly evicted in round 2", i)
		}
	}
}

// TestTLBStatsConsistency: hits + misses equals lookups, never decreasing.
func TestTLBStatsConsistency(t *testing.T) {
	tlb := MustNewTLB(TLBConfig{Entries: 8, PageSize: addr.PageSize4K})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		va := addr.VA(uint64(rng.Intn(32)) * addr.PageSize4K)
		if rng.Intn(3) == 0 {
			tlb.Insert(va, addr.PA(va), addr.ReadOnly)
		} else {
			tlb.Lookup(va)
		}
		if tlb.Hits()+tlb.Misses() != tlb.Lookups() {
			t.Fatalf("stats inconsistent at step %d", i)
		}
	}
	if tlb.MissRate() < 0 || tlb.MissRate() > 1 {
		t.Errorf("MissRate = %v", tlb.MissRate())
	}
	tlb.Reset()
	if tlb.Lookups() != 0 {
		t.Error("Reset did not clear counters")
	}
}

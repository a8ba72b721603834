package mmu

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
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

// insert caches a translation and returns the events a traced TLB
// emits for it: none for an update in place, else an EvEvict of the
// displaced LRU entry (only when the set was full) and an EvFill.
func (r *refTLB) insert(base addr.VA, pa addr.PA, perm addr.Perm) []obs.Event {
	vpn := uint64(base) / r.pageSize
	si := vpn % uint64(r.nsets)
	set := r.sets[si]
	for i, e := range set {
		if e.vpn == vpn {
			copy(set[1:i+1], set[:i])
			set[0] = refEntry{vpn: vpn, pfn: uint64(pa) / r.pageSize, perm: perm}
			return nil
		}
	}
	var evs []obs.Event
	e := refEntry{vpn: vpn, pfn: uint64(pa) / r.pageSize, perm: perm}
	set = append([]refEntry{e}, set...)
	if len(set) > r.ways {
		v := set[r.ways]
		evs = append(evs, obs.Event{Comp: obs.CompTLB, Kind: obs.EvEvict, VA: v.vpn * r.pageSize, PA: v.pfn * r.pageSize, Aux: v.vpn})
		set = set[:r.ways]
	}
	r.sets[si] = set
	return append(evs, obs.Event{Comp: obs.CompTLB, Kind: obs.EvFill, VA: uint64(base), PA: uint64(pa), Aux: vpn})
}

func (r *refTLB) invalidate() {
	for i := range r.sets {
		r.sets[i] = nil
	}
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

// tlbOp is one step of a TLB script: a Lookup of page, an Insert of
// page -> frame, an Invalidate or a Reset.
type tlbOp struct {
	kind        byte // 'L', 'I', 'V' or 'R'
	page, frame uint64
}

// checkTLBScript runs ops on a traced TLB, an untraced TLB, a TLB whose
// every Insert takes the full path, and the reference. Every lookup must
// agree with the reference; the traced TLB's fills and evictions must be
// the reference's, in order; the traced and untraced TLBs must end with
// the same entries, LRU stamps and counters; and after every op the
// traced TLB's slots must equal the full-path TLB's, so a hand-off
// fills exactly the slot the full path would.
func checkTLBScript(t *testing.T, entries, ways int, ops []tlbOp) {
	t.Helper()
	cfg := TLBConfig{Entries: entries, Ways: ways, PageSize: addr.PageSize4K}
	traced, plain, full := MustNewTLB(cfg), MustNewTLB(cfg), MustNewTLB(cfg)
	tr := obs.NewTracer(4*len(ops)+1, obs.Mask(1<<obs.CompTLB))
	traced.SetTrace(tr, obs.CompTLB)
	ref := newRefTLB(entries, ways, addr.PageSize4K)
	var want []obs.Event
	for i, op := range ops {
		va := addr.VA(op.page * addr.PageSize4K)
		switch op.kind {
		case 'L':
			probe := va + addr.VA(op.frame%addr.PageSize4K)
			wantPA, wantPerm, wantHit := ref.lookup(probe)
			for _, tlb := range []*TLB{traced, plain, full} {
				gotPA, gotPerm, gotHit := tlb.Lookup(probe)
				if gotHit != wantHit || (gotHit && (gotPA != wantPA || gotPerm != wantPerm)) {
					t.Fatalf("op %d lookup page %d: (%#x,%v,%v), reference (%#x,%v,%v)\nops %v",
						i, op.page, uint64(gotPA), gotPerm, gotHit, uint64(wantPA), wantPerm, wantHit, ops)
				}
			}
		case 'I':
			pa := addr.PA(op.frame * addr.PageSize4K)
			perm := addr.ReadOnly
			if op.frame&1 == 0 {
				perm = addr.ReadWrite
			}
			traced.Insert(va, pa, perm)
			plain.Insert(va, pa, perm)
			full.handOK = false
			full.Insert(va, pa, perm)
			want = append(want, ref.insert(va, pa, perm)...)
		case 'V':
			traced.Invalidate()
			plain.Invalidate()
			full.Invalidate()
			ref.invalidate()
		case 'R':
			traced.Reset()
			plain.Reset()
			full.Reset()
		}
		if !reflect.DeepEqual(traced.sets, full.sets) {
			t.Fatalf("op %d %c page %d: slots %v, full path %v\nops %v", i, op.kind, op.page, traced.sets, full.sets, ops)
		}
	}
	got := tr.Events()
	for i := range got {
		got[i].Seq = 0
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("traced events %+v, reference %+v\nops %v", got, want, ops)
	}
	if !reflect.DeepEqual(traced.sets, plain.sets) || traced.Snapshot() != plain.Snapshot() || traced.clock != plain.clock {
		t.Fatalf("traced and untraced TLBs diverged\nops %v", ops)
	}
}

// fillOps inserts pages 0..n-1 and looks each up once, so every set is
// full and its LRU order is the insertion order.
func fillOps(n uint64) []tlbOp {
	var ops []tlbOp
	for p := uint64(0); p < n; p++ {
		ops = append(ops, tlbOp{'I', p, 100 + p})
	}
	for p := uint64(0); p < n; p++ {
		ops = append(ops, tlbOp{'L', p, 7})
	}
	return ops
}

// TestTLBHandoff: a Lookup miss hands its victim to the Insert that
// follows it only when that Insert fills the missed page. Each case
// runs on a full fully associative TLB, on a full 2-way TLB (where the
// other page can live in another set) and on a half-empty one (where the
// victim is an invalid slot), traced and untraced.
func TestTLBHandoff(t *testing.T) {
	cases := []struct {
		name string
		ops  []tlbOp
	}{
		{"miss then fill of the same page", []tlbOp{{'L', 9, 0}, {'I', 9, 900}, {'L', 9, 1}, {'L', 0, 0}, {'L', 1, 0}}},
		{"miss then fill of a cached page", []tlbOp{{'L', 9, 0}, {'I', 2, 902}, {'L', 0, 0}, {'L', 2, 0}, {'L', 9, 0}, {'I', 10, 910}, {'L', 1, 0}}},
		{"miss then fill of an uncached page", []tlbOp{{'L', 9, 0}, {'I', 12, 912}, {'L', 9, 0}, {'L', 12, 0}, {'I', 9, 909}, {'L', 0, 0}, {'L', 1, 0}}},
		{"miss, hit on another entry, fill", []tlbOp{{'L', 9, 0}, {'L', 0, 0}, {'I', 9, 909}, {'L', 0, 0}, {'L', 1, 0}, {'L', 9, 0}}},
		{"miss, invalidate, fill", []tlbOp{{'L', 9, 0}, {'V', 0, 0}, {'I', 9, 909}, {'L', 9, 0}, {'I', 3, 903}, {'L', 3, 0}}},
		{"miss, reset, fill", []tlbOp{{'L', 9, 0}, {'R', 0, 0}, {'I', 9, 909}, {'L', 9, 0}, {'L', 0, 0}}},
		{"miss, fill, fill again", []tlbOp{{'L', 9, 0}, {'I', 9, 909}, {'I', 9, 919}, {'L', 9, 0}, {'L', 0, 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, g := range []struct {
				entries, ways int
				filled        uint64
			}{{4, 0, 4}, {4, 2, 4}, {8, 2, 3}} {
				checkTLBScript(t, g.entries, g.ways, append(fillOps(g.filled), c.ops...))
			}
		})
	}
}

// scriptOps decodes a byte string into a TLB script over 12 pages. Over half
// the ops look a page up, and an Insert usually fills the page the
// previous op missed, so hand-offs are exercised as often as the full
// path.
func scriptOps(data []byte) []tlbOp {
	var ops []tlbOp
	var last uint64
	for _, b := range data {
		page := uint64(b>>3) % 12
		switch b & 7 {
		case 0, 1, 2, 3:
			ops = append(ops, tlbOp{'L', page, uint64(b)})
			last = page
		case 4, 5:
			ops = append(ops, tlbOp{'I', last, uint64(b)})
		case 6:
			ops = append(ops, tlbOp{'I', page, uint64(b)})
		case 7:
			if page == 0 {
				ops = append(ops, tlbOp{'V', 0, 0})
			} else if page == 1 {
				ops = append(ops, tlbOp{'R', 0, 0})
			} else {
				ops = append(ops, tlbOp{'L', page, 0})
			}
		}
	}
	return ops
}

// handoffGeometries are the TLB shapes the scripted tests cover:
// fully associative, set associative, and a non-power-of-two set count.
var handoffGeometries = []struct{ entries, ways int }{{4, 0}, {8, 2}, {16, 4}, {6, 2}}

// TestTLBHandoffRandomScripts: random scripts of lookups, fills of the
// missed page, other fills, invalidations and resets agree with the
// reference, traced and untraced.
func TestTLBHandoffRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 300)
	for i := 0; i < 200; i++ {
		rng.Read(data)
		g := handoffGeometries[i%len(handoffGeometries)]
		checkTLBScript(t, g.entries, g.ways, scriptOps(data))
	}
}

// FuzzTLBHandoff: any script agrees with the reference, traced and
// untraced.
func FuzzTLBHandoff(f *testing.F) {
	f.Add(uint8(0), []byte{0x48, 0x4c, 0x08, 0x0c, 0x10, 0x14, 0x50, 0x54})
	f.Add(uint8(1), []byte{0x48, 0x16, 0x07, 0x4c, 0x0f, 0x4d})
	f.Add(uint8(3), []byte{0x00, 0x04, 0x08, 0x0c, 0x18, 0x1c, 0x20, 0x26})
	f.Fuzz(func(t *testing.T, geom uint8, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		g := handoffGeometries[int(geom)%len(handoffGeometries)]
		checkTLBScript(t, g.entries, g.ways, scriptOps(data))
	})
}

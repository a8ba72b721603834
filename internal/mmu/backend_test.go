package mmu

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// This file is the backend conformance suite: every registered design —
// the seven paper modes plus the SPARTA/VBI extras and any future
// registration — must satisfy the Backend contract (DESIGN.md §11):
// deterministic results, a zero-allocation hot path, statistics that
// agree with the metric registry under the descriptor's TLB prefix, and
// SwitchContext flushing exactly the per-address-space structures.

const (
	confBase      = uint64(addr.PageSize1G)
	confIdentSize = uint64(8 << 20)
	// confFallbackVA is a demand-paged (non-identity) region mapped only
	// in canonical 4 KB tables; DVM designs reach it through their
	// fallback path.
	confFallbackVA    = addr.VA(confBase + 512<<20)
	confFallbackPages = 16
	confFallbackPA    = addr.PA(1) << 35
)

// confState builds the OS-model state bundle the mode's descriptor
// declares: the right flavour of page table, plus a bitmap and a block
// table when needed, all describing the same address space — an identity
// window at confBase and (for canonical tables) a translated region at
// confFallbackVA.
func confState(t testing.TB, m Mode) State {
	t.Helper()
	d, ok := DescriptorOf(m)
	if !ok {
		t.Fatalf("mode %v has no registered descriptor", m)
	}
	var st State
	switch d.Table {
	case TableNone:
	case TableHuge:
		size := confIdentSize
		if d.PageSize > size {
			size = d.PageSize
		}
		tbl := pagetable.MustNew(pagetable.Config{})
		if err := tbl.MapRange(addr.VRange{Start: addr.VA(confBase), Size: size}, addr.PA(confBase), addr.ReadWrite, d.PageSize); err != nil {
			t.Fatal(err)
		}
		st.Table = tbl
	case TableCanonical, TablePE:
		tbl := pagetable.MustNew(pagetable.Config{})
		if err := tbl.MapRange(addr.VRange{Start: addr.VA(confBase), Size: confIdentSize}, addr.PA(confBase), addr.ReadWrite, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
		if d.Table == TableCanonical {
			for i := uint64(0); i < confFallbackPages; i++ {
				if err := tbl.Map(confFallbackVA+addr.VA(i*addr.PageSize4K), confFallbackPA+addr.PA(i*addr.PageSize4K), addr.ReadWrite, addr.PageSize4K); err != nil {
					t.Fatal(err)
				}
			}
		}
		if d.Table == TablePE {
			tbl = compacted(tbl)
		}
		st.Table = tbl
	}
	if d.NeedsBitmap {
		bm := NewPermBitmap()
		bm.SetRange(addr.VRange{Start: addr.VA(confBase), Size: confIdentSize}, addr.ReadWrite)
		st.Bitmap = bm
	}
	if d.NeedsBlocks {
		bt := NewBlockTable()
		bt.Add(addr.VRange{Start: addr.VA(confBase), Size: confIdentSize}, addr.ReadWrite, true)
		bt.Add(addr.VRange{Start: confFallbackVA, Size: confFallbackPages * addr.PageSize4K}, addr.ReadWrite, false)
		bt.Seal()
		st.Blocks = bt
	}
	return st
}

// confVAs returns a fixed-seed access sequence over the identity window,
// mixing in fallback-region accesses for the designs whose table maps it.
func confVAs(m Mode, n int) []addr.VA {
	d, _ := DescriptorOf(m)
	rng := rand.New(rand.NewSource(7))
	vas := make([]addr.VA, n)
	for i := range vas {
		if d != nil && d.Table == TableCanonical && rng.Intn(4) == 0 {
			vas[i] = confFallbackVA + addr.VA(uint64(rng.Intn(confFallbackPages))*addr.PageSize4K)
		} else {
			vas[i] = addr.VA(confBase + uint64(rng.Intn(int(confIdentSize))))
		}
	}
	return vas
}

// TestRegistryModeLists pins the derived mode lists: AllModes is exactly
// the paper's seven-configuration artifact set in legend order, and the
// extras (SPARTA, VBI) slot in by Order before Ideal.
func TestRegistryModeLists(t *testing.T) {
	wantPaper := []Mode{ModeConv4K, ModeConv2M, ModeConv1G, ModeDVMBM, ModeDVMPE, ModeDVMPEPlus, ModeIdeal}
	if !reflect.DeepEqual(AllModes, wantPaper) {
		t.Errorf("AllModes = %v, want %v", AllModes, wantPaper)
	}
	wantAll := []Mode{ModeConv4K, ModeConv2M, ModeConv1G, ModeDVMBM, ModeDVMPE, ModeDVMPEPlus, ModeSPARTA, ModeVBI, ModeIdeal}
	if got := RegisteredModes(); !reflect.DeepEqual(got, wantAll) {
		t.Errorf("RegisteredModes() = %v, want %v", got, wantAll)
	}
	if got := ExtraModes(); !reflect.DeepEqual(got, []Mode{ModeSPARTA, ModeVBI}) {
		t.Errorf("ExtraModes() = %v, want [SPARTA VBI]", got)
	}
	names := ModeNames()
	if len(names) != len(wantAll) || names[len(names)-1] != "Ideal" {
		t.Errorf("ModeNames() = %v, want %d names ending in Ideal", names, len(wantAll))
	}
}

// TestModeByNameResolution: the CLI mode vocabulary is registry-driven —
// canonical names and aliases resolve case-insensitively, and unknown
// names error listing the registered set (the dvmsim exit-2 contract).
func TestModeByNameResolution(t *testing.T) {
	cases := map[string]Mode{
		"4k": ModeConv4K, "4K,TLB+PWC": ModeConv4K, "conv4k": ModeConv4K,
		"DVM-BM": ModeDVMBM, "bm": ModeDVMBM,
		"pe+": ModeDVMPEPlus, "PE+": ModeDVMPEPlus, "dvm-pe-plus": ModeDVMPEPlus,
		"sparta": ModeSPARTA, "SPARTA": ModeSPARTA, "Sparta": ModeSPARTA,
		"vbi": ModeVBI, "VBI": ModeVBI,
		" ideal ": ModeIdeal,
	}
	for name, want := range cases {
		m, err := ModeByName(name)
		if err != nil || m != want {
			t.Errorf("ModeByName(%q) = %v, %v; want %v", name, m, err, want)
		}
	}
	_, err := ModeByName("5-level-radix")
	if err == nil {
		t.Fatal("unknown mode name accepted")
	}
	for _, frag := range []string{"registered:", "SPARTA", "VBI", "DVM-PE+"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("unknown-mode error %q does not list %q", err, frag)
		}
	}
}

// TestBackendDeterminism: two independently constructed IOMMUs of the
// same mode, fed the same access sequence, must agree on every plan and
// every counter — the property the byte-identical artifacts rest on.
func TestBackendDeterminism(t *testing.T) {
	for _, m := range RegisteredModes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			type digest struct {
				PA     addr.PA
				Fault  bool
				Probes uint64
				Refs   int
			}
			run := func() ([]digest, Counters, BackendStats) {
				u, err := NewState(Config{Mode: m, TLBEntries: 16}, confState(t, m))
				if err != nil {
					t.Fatal(err)
				}
				vas := confVAs(m, 400)
				out := make([]digest, len(vas))
				var p Plan
				for i, va := range vas {
					kind := addr.Read
					if i%3 == 0 {
						kind = addr.Write
					}
					u.TranslateInto(va, kind, &p)
					out[i] = digest{PA: p.PA, Fault: p.Fault, Probes: p.ProbeCycles, Refs: len(p.MemRefs)}
				}
				return out, u.Counters(), u.Stats()
			}
			d1, c1, s1 := run()
			d2, c2, s2 := run()
			if !reflect.DeepEqual(d1, d2) {
				t.Error("plans differ between identical runs")
			}
			if c1 != c2 {
				t.Errorf("counters differ: %+v vs %+v", c1, c2)
			}
			if s1 != s2 {
				t.Errorf("stats differ: %+v vs %+v", s1, s2)
			}
		})
	}
}

// TestBackendZeroAlloc: the Backend contract's hot-path requirement —
// TranslateInto performs no allocation in steady state for every
// registered design, with metrics registered and a masked-off tracer
// attached (the production configuration of a report run).
func TestBackendZeroAlloc(t *testing.T) {
	for _, m := range RegisteredModes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			u, err := NewState(Config{Mode: m, TLBEntries: 16}, confState(t, m))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			u.RegisterMetrics(reg)
			u.SetTracer(obs.NewTracer(16, 0)) // attached, every component masked off
			vas := confVAs(m, 512)
			var p Plan
			// One full pass warms the lazy state (MemRefs capacity, cache
			// arrays) so the measured runs see the steady-state path.
			for _, va := range vas {
				u.TranslateInto(va, addr.Read, &p)
			}
			var i int
			allocs := testing.AllocsPerRun(2000, func() {
				u.TranslateInto(vas[i%len(vas)], addr.Read, &p)
				i++
			})
			if allocs != 0 {
				t.Errorf("%v TranslateInto allocates %.1f objects/op, want 0", m, allocs)
			}
		})
	}
}

// TestBackendStatsMatchRegistry: BackendStats.TLBLookups must equal
// hits+misses under the descriptor's TLBMetricPrefix — the invariant
// core.CrossCheck enforces on every run (designs without a TLB report
// zero under an unregistered prefix, which also holds).
func TestBackendStatsMatchRegistry(t *testing.T) {
	for _, m := range RegisteredModes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			d, _ := DescriptorOf(m)
			u, err := NewState(Config{Mode: m, TLBEntries: 16}, confState(t, m))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			u.RegisterMetrics(reg)
			vas := confVAs(m, 300)
			var p Plan
			for _, va := range vas {
				u.TranslateInto(va, addr.Read, &p)
			}
			s := reg.Snapshot()
			prefix := d.TLBMetricPrefix
			if prefix == "" {
				prefix = "mmu.tlb"
			}
			bs := u.Stats()
			if want := s.Get(prefix+".hits") + s.Get(prefix+".misses"); bs.TLBLookups != want {
				t.Errorf("Stats().TLBLookups = %d, registry %s.* = %d", bs.TLBLookups, prefix, want)
			}
			if got := s.Get("iommu.accesses"); got != uint64(len(vas)) {
				t.Errorf("iommu.accesses = %d, want %d", got, len(vas))
			}
		})
	}
}

// TestBackendSwitchContextIsolation: after retargeting at a second
// address space where the same VAs translate differently, no design may
// serve a stale translation from per-address-space structures.
func TestBackendSwitchContextIsolation(t *testing.T) {
	// Process B maps the identity window's pages to confFallbackPA — any
	// surviving identity translation (PA == VA) is a flush bug.
	pages := uint64(32)
	tblB := pagetable.MustNew(pagetable.Config{})
	for i := uint64(0); i < pages; i++ {
		if err := tblB.Map(addr.VA(confBase+i*addr.PageSize4K), confFallbackPA+addr.PA(i*addr.PageSize4K), addr.ReadWrite, addr.PageSize4K); err != nil {
			t.Fatal(err)
		}
	}
	bmB := NewPermBitmap() // empty: every access falls back to the walk
	btB := NewBlockTable()
	btB.Add(addr.VRange{Start: addr.VA(confBase), Size: pages * addr.PageSize4K}, addr.ReadWrite, false)
	btB.Seal()

	for _, m := range []Mode{ModeConv4K, ModeDVMBM, ModeSPARTA, ModeVBI} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			u, err := NewState(Config{Mode: m, TLBEntries: 64, Shards: 4}, confState(t, m))
			if err != nil {
				t.Fatal(err)
			}
			var p Plan
			// Warm every (SPARTA: every shard's) TLB with identity
			// translations, twice so the second pass hits.
			for pass := 0; pass < 2; pass++ {
				for i := uint64(0); i < pages; i++ {
					u.TranslateInto(addr.VA(confBase+i*addr.PageSize4K), addr.Read, &p)
					if p.Fault || p.PA != addr.PA(confBase+i*addr.PageSize4K) {
						t.Fatalf("warm-up plan: %+v", p)
					}
				}
			}
			if err := u.SwitchContext(State{Table: tblB, Bitmap: bmB, Blocks: btB}); err != nil {
				t.Fatal(err)
			}
			if u.Counters().ContextSwitches != 1 {
				t.Errorf("ContextSwitches = %d, want 1", u.Counters().ContextSwitches)
			}
			for i := uint64(0); i < pages; i++ {
				va := addr.VA(confBase + i*addr.PageSize4K)
				u.TranslateInto(va, addr.Read, &p)
				want := confFallbackPA + addr.PA(i*addr.PageSize4K)
				if p.Fault || p.PA != want {
					t.Fatalf("post-switch translation of %#x: %+v, want PA %#x (stale TLB/cache?)", uint64(va), p, uint64(want))
				}
			}
		})
	}
}

// TestSPARTAConfigValidation pins the construction contract: a table is
// required and the shard count must be a power of two.
func TestSPARTAConfigValidation(t *testing.T) {
	if _, err := NewState(Config{Mode: ModeSPARTA}, State{}); err == nil {
		t.Error("SPARTA without a table accepted")
	}
	st := confState(t, ModeSPARTA)
	if _, err := NewState(Config{Mode: ModeSPARTA, Shards: 3}, st); err == nil {
		t.Error("shard count 3 accepted (must be a power of two)")
	}
	for _, shards := range []int{0, 1, 2, 8} {
		if _, err := NewState(Config{Mode: ModeSPARTA, Shards: shards}, st); err != nil {
			t.Errorf("shards=%d rejected: %v", shards, err)
		}
	}
}

// TestSPARTAShardPartitioning: accesses land in the shard the partition
// function selects, and the walk skips the root level — a warm shard
// walker resolves a new page in that shard without new memory references
// beyond the leaf levels a centralized walker would also miss.
func TestSPARTAShardPartitioning(t *testing.T) {
	u, err := NewState(Config{Mode: ModeSPARTA, TLBEntries: 16, Shards: 4}, confState(t, ModeSPARTA))
	if err != nil {
		t.Fatal(err)
	}
	b := u.Backend().(*spartaBackend)
	var p Plan
	// Touch pages 0..3: one per shard under page-granular interleaving.
	for i := uint64(0); i < 4; i++ {
		u.TranslateInto(addr.VA(confBase+i*addr.PageSize4K), addr.Read, &p)
	}
	for i := range b.shards {
		if got := b.shards[i].tlb.Lookups(); got != 1 {
			t.Errorf("shard %d TLB lookups = %d, want exactly 1 (partition function broken?)", i, got)
		}
	}
	// The shard walk skips the root step: a cold SPARTA walk issues
	// strictly fewer dependent references than a cold conventional walk
	// of the same table.
	conv, err := NewState(Config{Mode: ModeConv4K, TLBEntries: 16}, confState(t, ModeConv4K))
	if err != nil {
		t.Fatal(err)
	}
	var pc, ps Plan
	conv.TranslateInto(addr.VA(confBase), addr.Read, &pc)
	u2, _ := NewState(Config{Mode: ModeSPARTA, TLBEntries: 16, Shards: 4}, confState(t, ModeSPARTA))
	u2.TranslateInto(addr.VA(confBase), addr.Read, &ps)
	if len(ps.MemRefs) >= len(pc.MemRefs) {
		t.Errorf("cold SPARTA walk refs = %d, conventional = %d; want strictly fewer (root level skipped)", len(ps.MemRefs), len(pc.MemRefs))
	}
}

// TestVBIStateValidation pins VBI's construction and context-switch state
// requirements: both a canonical table and a block table.
func TestVBIStateValidation(t *testing.T) {
	st := confState(t, ModeVBI)
	if _, err := NewState(Config{Mode: ModeVBI}, State{Table: st.Table}); err == nil {
		t.Error("VBI without a block table accepted")
	}
	if _, err := NewState(Config{Mode: ModeVBI}, State{Blocks: st.Blocks}); err == nil {
		t.Error("VBI without a page table accepted")
	}
	u, err := NewState(Config{Mode: ModeVBI}, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SwitchContext(State{Table: st.Table}); err == nil {
		t.Error("VBI context switch without a block table accepted")
	}
	if err := u.SwitchContext(State{Blocks: st.Blocks}); err == nil {
		t.Error("VBI context switch without a page table accepted")
	}
	if u.Counters().ContextSwitches != 0 {
		t.Error("rejected context switches were counted")
	}
}

// TestVBIBlockSemantics: block-descriptor fetches cost one memory
// reference only on block-cache misses; identity blocks complete with
// PA == VA; out-of-block accesses and block-permission denials fault.
func TestVBIBlockSemantics(t *testing.T) {
	bt := NewBlockTable()
	bt.Add(addr.VRange{Start: addr.VA(confBase), Size: confIdentSize}, addr.ReadOnly, true)
	bt.Add(addr.VRange{Start: confFallbackVA, Size: confFallbackPages * addr.PageSize4K}, addr.ReadWrite, false)
	bt.Seal()
	st := confState(t, ModeVBI)
	st.Blocks = bt
	u, err := NewState(Config{Mode: ModeVBI}, st)
	if err != nil {
		t.Fatal(err)
	}
	var p Plan
	// Cold: one block-table reference, then identity completion.
	u.TranslateInto(addr.VA(confBase), addr.Read, &p)
	if p.Fault || p.PA != addr.PA(confBase) {
		t.Fatalf("identity block plan: %+v", p)
	}
	if len(p.MemRefs) != 1 || p.MemRefs[0] != bt.EntryPA(0) {
		t.Errorf("cold block fetch MemRefs = %v, want [%#x]", p.MemRefs, uint64(bt.EntryPA(0)))
	}
	// Warm: the descriptor is cached; an identity validation is free of
	// memory references.
	u.TranslateInto(addr.VA(confBase+addr.PageSize4K), addr.Read, &p)
	if len(p.MemRefs) != 0 {
		t.Errorf("warm identity access MemRefs = %v, want none", p.MemRefs)
	}
	// Block-granular permission: a write to the read-only block faults,
	// regardless of the page table saying read-write.
	u.TranslateInto(addr.VA(confBase), addr.Write, &p)
	if !p.Fault {
		t.Error("write to read-only block did not fault")
	}
	// Non-identity block: DVM fallback through the canonical walk.
	u.TranslateInto(confFallbackVA, addr.Read, &p)
	if p.Fault || p.PA != confFallbackPA {
		t.Fatalf("fallback block plan: %+v, want PA %#x", p, uint64(confFallbackPA))
	}
	// Outside every block: unmapped fault, even though nothing is wrong
	// with the page table.
	u.TranslateInto(addr.VA(confBase-addr.PageSize4K), addr.Read, &p)
	if !p.Fault || p.FaultKind != pagetable.FaultUnmapped {
		t.Errorf("out-of-block access plan: %+v, want FaultUnmapped", p)
	}
	if u.Counters().DAVIdentity != 2 || u.Counters().FallbackTranslations != 1 {
		t.Errorf("counters: %+v, want 2 identity / 1 fallback", u.Counters())
	}
}

// TestFaultTraceCarriesAddresses: EvFault events must localize the fault
// — the faulting VA always, and the PA the failure was detected at when
// one exists (the terminal walk entry, or the translated PA of a
// permission denial). A regression here reverts the zeroed-address
// trace bug.
func TestFaultTraceCarriesAddresses(t *testing.T) {
	findFault := func(tr *obs.Tracer) *obs.Event {
		for _, ev := range tr.Events() {
			if ev.Comp == obs.CompIOMMU && ev.Kind == obs.EvFault {
				return &ev
			}
		}
		return nil
	}

	// Permission denial: the PE walk translated the access before the
	// permission check failed, so the event carries VA and translated PA.
	tbl := pagetable.MustNew(pagetable.Config{})
	if err := tbl.MapRange(addr.VRange{Start: addr.VA(confBase), Size: 2 << 20}, addr.PA(confBase), addr.ReadOnly, addr.PageSize4K); err != nil {
		t.Fatal(err)
	}
	tbl = compacted(tbl)
	u := MustNew(Config{Mode: ModeDVMPE}, tbl, nil)
	tr := obs.NewTracer(64, obs.MaskAll)
	u.SetTracer(tr)
	va := addr.VA(confBase + 5*addr.PageSize4K)
	if p := u.Translate(va, addr.Write); !p.Fault {
		t.Fatal("write through read-only mapping did not fault")
	}
	ev := findFault(tr)
	if ev == nil {
		t.Fatal("no iommu fault event emitted")
	}
	if ev.VA != uint64(va) {
		t.Errorf("permission-fault event VA = %#x, want %#x", ev.VA, uint64(va))
	}
	if ev.PA != uint64(va) { // identity mapped: translated PA == VA
		t.Errorf("permission-fault event PA = %#x, want %#x", ev.PA, uint64(va))
	}
	if ev.Aux != uint64(pagetable.FaultNone) {
		t.Errorf("permission-fault event Aux = %d, want FaultNone", ev.Aux)
	}

	// Unmapped walk: the event carries the VA and the physical address of
	// the page-table entry the walk died on.
	u2 := MustNew(Config{Mode: ModeConv4K}, buildIdentityTable(t, confBase, 2<<20, addr.PageSize4K, false), nil)
	tr2 := obs.NewTracer(64, obs.MaskAll)
	u2.SetTracer(tr2)
	badVA := addr.VA(confBase + 64<<30)
	if p := u2.Translate(badVA, addr.Read); !p.Fault || p.FaultKind != pagetable.FaultUnmapped {
		t.Fatalf("unmapped access plan not FaultUnmapped")
	}
	ev2 := findFault(tr2)
	if ev2 == nil {
		t.Fatal("no iommu fault event emitted for unmapped access")
	}
	if ev2.VA != uint64(badVA) {
		t.Errorf("unmapped-fault event VA = %#x, want %#x", ev2.VA, uint64(badVA))
	}
	if ev2.Aux != uint64(pagetable.FaultUnmapped) {
		t.Errorf("unmapped-fault event Aux = %d, want FaultUnmapped", ev2.Aux)
	}
}

// TestBMTraceCarriesCacheHit: DVM-BM's DAV events must fold the bitmap
// cache hit/miss into Aux (AuxBMCacheHit) so a trace can separate cached
// validations from ones that cost a bitmap memory reference — the
// previously discarded lookupBitmap result.
func TestBMTraceCarriesCacheHit(t *testing.T) {
	u, err := NewState(Config{Mode: ModeDVMBM, TLBEntries: 16}, confState(t, ModeDVMBM))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(64, obs.MaskAll)
	u.SetTracer(tr)
	var p Plan
	va := addr.VA(confBase)
	u.TranslateInto(va, addr.Read, &p)  // cold: bitmap line fetched
	u.TranslateInto(va, addr.Write, &p) // warm: bitmap cache hit
	var davs []obs.Event
	for _, ev := range tr.Events() {
		if ev.Comp == obs.CompIOMMU && ev.Kind == obs.EvDAVIdentity {
			davs = append(davs, ev)
		}
	}
	if len(davs) != 2 {
		t.Fatalf("dav.identity events = %d, want 2", len(davs))
	}
	if davs[0].Aux&obs.AuxBMCacheHit != 0 {
		t.Errorf("cold access aux %#x claims a bitmap-cache hit", davs[0].Aux)
	}
	if davs[1].Aux&obs.AuxBMCacheHit == 0 {
		t.Errorf("warm access aux %#x lost the bitmap-cache hit", davs[1].Aux)
	}
	if kind := davs[1].Aux &^ obs.AuxBMCacheHit; kind != uint64(addr.Write) {
		t.Errorf("warm access aux %#x lost the access kind (want Write)", davs[1].Aux)
	}
	// The fallback path carries the same aux encoding.
	fva := confFallbackVA
	u.TranslateInto(fva, addr.Read, &p)
	u.TranslateInto(fva, addr.Read, &p)
	var fbs []obs.Event
	for _, ev := range tr.Events() {
		if ev.Comp == obs.CompIOMMU && ev.Kind == obs.EvDAVFallback {
			fbs = append(fbs, ev)
		}
	}
	if len(fbs) != 2 {
		t.Fatalf("dav.fallback events = %d, want 2", len(fbs))
	}
	if fbs[0].Aux&obs.AuxBMCacheHit != 0 || fbs[1].Aux&obs.AuxBMCacheHit == 0 {
		t.Errorf("fallback aux sequence = %#x, %#x; want miss then hit", fbs[0].Aux, fbs[1].Aux)
	}
}

// TestBackendResetContract: Reset zeroes statistics but preserves cached
// contents, for every design with structures (the warm-up exclusion
// contract the engine relies on).
func TestBackendResetContract(t *testing.T) {
	for _, m := range RegisteredModes() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			u, err := NewState(Config{Mode: m, TLBEntries: 16, Shards: 4}, confState(t, m))
			if err != nil {
				t.Fatal(err)
			}
			vas := confVAs(m, 200)
			var p Plan
			for _, va := range vas {
				u.TranslateInto(va, addr.Read, &p)
			}
			u.Backend().Reset()
			bs := u.Stats()
			if bs.TLBLookups != 0 || bs.CacheLookups != 0 {
				t.Errorf("stats after Reset: %+v, want zeroed lookup counts", bs)
			}
			// Warm structures survive: replaying the same sequence can
			// only do as well or better than the cold run's hit rates.
			for _, va := range vas {
				u.TranslateInto(va, addr.Read, &p)
			}
		})
	}
}

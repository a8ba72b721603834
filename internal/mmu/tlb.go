// Package mmu models the memory-management hardware of the simulated
// system: TLBs, page-walk caches, the paper's Access Validation Cache
// (AVC), the DVM-BM permission bitmap with its cache, and the IOMMU
// front-end that performs either conventional address translation or
// Devirtualized Access Validation (DAV) for accelerator memory requests.
package mmu

import (
	"fmt"
	"math/bits"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
)

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Entries is the total entry count (e.g. 128).
	Entries int
	// Ways is the associativity; 0 means fully associative.
	Ways int
	// PageSize is the translation granularity cached by this TLB
	// (4 KB / 2 MB / 1 GB). All inserted translations must use it.
	PageSize uint64
}

// tlbEntry is one cached translation.
type tlbEntry struct {
	valid   bool
	vpn     uint64 // base VA / PageSize
	pfn     uint64 // base PA / PageSize
	perm    addr.Perm
	lastUse uint64
}

// TLB is an LRU translation lookaside buffer with configurable
// associativity. It is single-page-size: the evaluated configurations each
// run with one translation granularity, which is also why the paper calls
// out that "supporting multiple page sizes is difficult" for set-associative
// TLBs.
type TLB struct {
	cfg   TLBConfig
	sets  [][]tlbEntry
	nsets int
	// pageShift/pageMask are the precomputed strength-reduced forms of
	// cfg.PageSize (always a power of two): va>>pageShift is the VPN,
	// va&pageMask the page offset. setMask replaces the set-index modulo
	// when nsets is a power of two (the common case — entries and ways
	// are powers of two in every evaluated configuration); setMask < 0
	// keeps the general modulo for odd set counts.
	pageShift uint
	pageMask  uint64
	setMask   int64
	clock     uint64
	hits      uint64
	misses    uint64
	// A Lookup miss hands its set's victim to the fill that usually
	// follows it: handVPN is the missed page and handWay the victim's
	// slot in its set. handOK holds only until the next operation that
	// can change a set (Lookup, Insert or Invalidate), so the set is
	// still as the miss scanned it when the fill uses the hand-off.
	handVPN uint64
	handWay int
	handOK  bool

	tr   *obs.Tracer
	comp obs.Component
}

// NewTLB creates a TLB.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("mmu: TLB needs at least one entry")
	}
	if cfg.PageSize != addr.PageSize4K && cfg.PageSize != addr.PageSize2M && cfg.PageSize != addr.PageSize1G {
		return nil, fmt.Errorf("mmu: unsupported TLB page size %d", cfg.PageSize)
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Entries // fully associative
	}
	if cfg.Entries%ways != 0 {
		return nil, fmt.Errorf("mmu: entries %d not divisible by ways %d", cfg.Entries, ways)
	}
	nsets := cfg.Entries / ways
	sets := make([][]tlbEntry, nsets)
	for i := range sets {
		sets[i] = make([]tlbEntry, ways)
	}
	t := &TLB{cfg: cfg, sets: sets, nsets: nsets}
	t.pageShift = uint(bits.TrailingZeros64(cfg.PageSize))
	t.pageMask = cfg.PageSize - 1
	t.setMask = -1
	if nsets&(nsets-1) == 0 {
		t.setMask = int64(nsets - 1)
	}
	return t, nil
}

// MustNewTLB is NewTLB that panics on error.
func MustNewTLB(cfg TLBConfig) *TLB {
	t, err := NewTLB(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

func (t *TLB) setFor(vpn uint64) []tlbEntry {
	if t.setMask >= 0 {
		return t.sets[vpn&uint64(t.setMask)]
	}
	return t.sets[vpn%uint64(t.nsets)]
}

// Lookup probes the TLB for va. On a hit it returns the translated PA and
// the cached permission. A miss picks the set's victim and hands it to
// the next operation, if that is the Insert of the missed page.
func (t *TLB) Lookup(va addr.VA) (pa addr.PA, perm addr.Perm, hit bool) {
	t.clock++
	vpn := uint64(va) >> t.pageShift
	set := t.setFor(vpn)
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lastUse = t.clock
			t.hits++
			t.handOK = false
			off := uint64(va) & t.pageMask
			return addr.PA(e.pfn<<t.pageShift | off), e.perm, true
		}
	}
	t.misses++
	t.handVPN, t.handWay, t.handOK = vpn, victim(set), true
	return 0, addr.NoPerm, false
}

// victim is the slot a fill replaces: the first with the lowest lastUse.
// Invalid slots have lastUse 0 and valid ones at least 1 (every
// operation advances the clock before it stamps), so this is the first
// invalid slot, else the true LRU.
func victim(set []tlbEntry) int {
	v := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[v].lastUse {
			v = i
		}
	}
	return v
}

// Insert caches the translation of the page containing va. base/pa must be
// aligned to the TLB's page size.
//
// Right after a Lookup miss of the same page, the set is as that miss
// scanned it: no slot holds the page, and the handed-off victim is
// still the one to replace, so the fill writes it without a scan.
// Every other Insert takes the full path. It checks the whole set for a
// duplicate before it picks a victim: a caller may insert without a
// preceding miss, or insert a page other than the missed one (a walk
// that ends at a leaf larger than the TLB's page names another page).
// Stopping the duplicate check at the first invalid slot would only be
// correct while valid entries form a prefix of the set (true today,
// since only Invalidate clears entries and it clears whole sets), and a
// future per-entry invalidation would then let a vpn be cached twice,
// corrupting hit accounting.
func (t *TLB) Insert(base addr.VA, pa addr.PA, perm addr.Perm) {
	t.clock++
	vpn := uint64(base) >> t.pageShift
	pfn := uint64(pa) >> t.pageShift
	set := t.setFor(vpn)
	way, handed := t.handWay, t.handOK && t.handVPN == vpn
	t.handOK = false
	if !handed {
		for i := range set {
			e := &set[i]
			if e.valid && e.vpn == vpn {
				e.pfn, e.perm, e.lastUse = pfn, perm, t.clock
				return
			}
		}
		way = victim(set)
	}
	if t.tr.Wants(t.comp) {
		if v := &set[way]; v.valid {
			t.tr.Emit(t.comp, obs.EvEvict, v.vpn*t.cfg.PageSize, v.pfn*t.cfg.PageSize, v.vpn)
		}
		t.tr.Emit(t.comp, obs.EvFill, uint64(base), uint64(pa), vpn)
	}
	set[way] = tlbEntry{valid: true, vpn: vpn, pfn: pfn, perm: perm, lastUse: t.clock}
}

// Invalidate removes all entries (full TLB shootdown).
func (t *TLB) Invalidate() {
	t.handOK = false
	for _, set := range t.sets {
		for i := range set {
			set[i] = tlbEntry{}
		}
	}
}

// Snapshot returns the current statistics (the CacheStats contract).
func (t *TLB) Snapshot() CacheStats { return CacheStats{Hits: t.hits, Misses: t.misses} }

// Reset zeroes the statistical counters per the CacheStats contract:
// cached entries and LRU recency are preserved so warm-up exclusion
// never perturbs replacement behaviour.
func (t *TLB) Reset() { t.hits, t.misses = 0, 0 }

// Hits returns the hit count (thin view over Snapshot).
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count (thin view over Snapshot).
func (t *TLB) Misses() uint64 { return t.misses }

// Lookups returns hits + misses.
func (t *TLB) Lookups() uint64 { return t.Snapshot().Lookups() }

// MissRate returns misses / lookups, or 0 with no lookups.
func (t *TLB) MissRate() float64 { return t.Snapshot().MissRate() }

// RegisterMetrics publishes the TLB's counters under prefix (e.g.
// "mmu.tlb" yields mmu.tlb.hits / mmu.tlb.misses). The registry reads
// the same fields Lookup increments, so registration adds no hot-path
// cost.
func (t *TLB) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+".hits", &t.hits)
	reg.RegisterCounter(prefix+".misses", &t.misses)
}

// SetTrace attaches an event tracer; fills and evictions are emitted
// as the given component (CompTLB, CompBMCache...). A nil tracer
// detaches.
func (t *TLB) SetTrace(tr *obs.Tracer, comp obs.Component) {
	t.tr, t.comp = tr, comp
}

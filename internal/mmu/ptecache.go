package mmu

import (
	"fmt"
	"math/bits"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/obs"
)

// PTECacheConfig describes a physically-indexed, physically-tagged cache of
// page-table lines. Both the conventional page-walk cache (PWC) and the
// paper's Access Validation Cache (AVC) are instances:
//
//   - PWC:  1 KB, 4-way, 64 B blocks, MinLevel = 2 — it refuses to cache
//     level-1 (leaf) PTE lines "to avoid polluting the PWC" [paper §4.1.2],
//     which is why conventional 4 KB walks always take ≥1 memory reference.
//   - AVC:  1 KB, 4-way, 64 B blocks, MinLevel = 1 — it caches all levels,
//     including L1 PTEs and Permission Entries. Because PEs shrink the page
//     table so much, L1 lines no longer pollute it.
type PTECacheConfig struct {
	// CapacityBytes is the total capacity (default 1 KB).
	CapacityBytes int
	// BlockBytes is the line size (default 64).
	BlockBytes int
	// Ways is the set associativity (default 4).
	Ways int
	// MinLevel is the lowest page-table level whose lines may be cached:
	// 2 for a conventional PWC, 1 for the AVC.
	MinLevel int
}

// DefaultPWCConfig returns the paper's PWC configuration.
func DefaultPWCConfig() PTECacheConfig {
	return PTECacheConfig{CapacityBytes: 1 << 10, BlockBytes: 64, Ways: 4, MinLevel: 2}
}

// DefaultAVCConfig returns the paper's AVC configuration: same geometry as
// the PWC (so it is "just as energy-efficient"), but caching every level.
func DefaultAVCConfig() PTECacheConfig {
	return PTECacheConfig{CapacityBytes: 1 << 10, BlockBytes: 64, Ways: 4, MinLevel: 1}
}

type pteBlock struct {
	valid   bool
	tag     uint64
	lastUse uint64
}

// PTECache is an LRU set-associative cache of page-table lines, indexed by
// the physical address of the line.
type PTECache struct {
	cfg   PTECacheConfig
	sets  [][]pteBlock
	nsets int
	// blockShift strength-reduces the line-number division when
	// BlockBytes is a power of two (it always is in the evaluated
	// geometries); blockShift < 0 keeps the general division. setMask
	// likewise replaces the set-index modulo for power-of-two set
	// counts.
	blockShift int
	setMask    int64
	clock      uint64
	hits       uint64
	misses     uint64
	// gen changes on every fill, eviction and invalidation — whenever
	// the set of resident lines may have changed. A hit only restamps
	// a line's recency, so it leaves gen alone: a line found resident
	// at generation g is still resident, in the same slot, while gen
	// is g (the per-PE front table relies on exactly this).
	gen uint64

	tr   *obs.Tracer
	comp obs.Component
}

// NewPTECache creates a cache; zero config fields take the PWC defaults
// except MinLevel, which must be set explicitly (it defines the cache's
// identity).
func NewPTECache(cfg PTECacheConfig) (*PTECache, error) {
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 1 << 10
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 64
	}
	if cfg.Ways == 0 {
		cfg.Ways = 4
	}
	if cfg.MinLevel < 1 {
		return nil, fmt.Errorf("mmu: PTECache MinLevel must be >= 1, got %d", cfg.MinLevel)
	}
	blocks := cfg.CapacityBytes / cfg.BlockBytes
	if blocks == 0 || cfg.CapacityBytes%cfg.BlockBytes != 0 {
		return nil, fmt.Errorf("mmu: capacity %d not a multiple of block size %d", cfg.CapacityBytes, cfg.BlockBytes)
	}
	if blocks%cfg.Ways != 0 {
		return nil, fmt.Errorf("mmu: %d blocks not divisible by %d ways", blocks, cfg.Ways)
	}
	nsets := blocks / cfg.Ways
	sets := make([][]pteBlock, nsets)
	for i := range sets {
		sets[i] = make([]pteBlock, cfg.Ways)
	}
	c := &PTECache{cfg: cfg, sets: sets, nsets: nsets, blockShift: -1, setMask: -1}
	if b := uint64(cfg.BlockBytes); b&(b-1) == 0 {
		c.blockShift = bits.TrailingZeros64(b)
	}
	if nsets&(nsets-1) == 0 {
		c.setMask = int64(nsets - 1)
	}
	return c, nil
}

// MustNewPTECache is NewPTECache that panics on error.
func MustNewPTECache(cfg PTECacheConfig) *PTECache {
	c, err := NewPTECache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *PTECache) Config() PTECacheConfig { return c.cfg }

// blockAddr returns the line-aligned address and its set index. The set
// index XOR-folds the upper line bits (hash indexing, as hardware walker
// caches do): page-table pages are 4 KB-aligned, so a plain modulo would
// drop every node's first lines into the same set and thrash the low
// set count of a 1 KB cache.
func (c *PTECache) blockAddr(pa addr.PA) (tag uint64, set int) {
	var line uint64
	if c.blockShift >= 0 {
		line = uint64(pa) >> uint(c.blockShift)
	} else {
		line = uint64(pa) / uint64(c.cfg.BlockBytes)
	}
	h := line
	h ^= h >> 4
	h ^= h >> 8
	h ^= h >> 16
	h ^= h >> 32
	if c.setMask >= 0 {
		return line, int(h & uint64(c.setMask))
	}
	return line, int(h % uint64(c.nsets))
}

// Caches reports whether lines of the given page-table level are cacheable
// here (the PWC/AVC distinction).
func (c *PTECache) Caches(level int) bool { return level >= c.cfg.MinLevel }

// Lookup probes for the page-table line containing pa, which holds an entry
// of the given level. Lines below MinLevel are never resident: the probe
// records a miss (the hardware still spends the probe).
func (c *PTECache) Lookup(pa addr.PA, level int) bool {
	c.clock++
	if !c.Caches(level) {
		c.misses++
		return false
	}
	tag, si := c.blockAddr(pa)
	set := c.sets[si]
	for i := range set {
		b := &set[i]
		if b.valid && b.tag == tag {
			b.lastUse = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Insert caches the line containing pa if its level is cacheable.
func (c *PTECache) Insert(pa addr.PA, level int) {
	if !c.Caches(level) {
		return
	}
	c.clock++
	tag, si := c.blockAddr(pa)
	set := c.sets[si]
	victim := 0
	for i := range set {
		b := &set[i]
		if b.valid && b.tag == tag {
			b.lastUse = c.clock
			return
		}
		if !b.valid {
			victim = i
			break
		}
		if b.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if c.tr.Wants(c.comp) {
		if v := &set[victim]; v.valid {
			c.tr.Emit(c.comp, obs.EvEvict, 0, v.tag*uint64(c.cfg.BlockBytes), v.tag)
		}
		c.tr.Emit(c.comp, obs.EvFill, 0, uint64(pa), uint64(level))
	}
	set[victim] = pteBlock{valid: true, tag: tag, lastUse: c.clock}
	c.gen++
}

// Invalidate empties the cache.
func (c *PTECache) Invalidate() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = pteBlock{}
		}
	}
	c.gen++
}

// resident returns the resident line holding pa, or nil, without
// probing: no clock tick, no statistics. The pointer stays valid for
// the cache's lifetime (sets are never reallocated), and names the
// same line while gen is unchanged.
func (c *PTECache) resident(pa addr.PA, level int) *pteBlock {
	if !c.Caches(level) {
		return nil
	}
	tag, si := c.blockAddr(pa)
	set := c.sets[si]
	for i := range set {
		if b := &set[i]; b.valid && b.tag == tag {
			return b
		}
	}
	return nil
}

// replayHits does exactly what one hitting Lookup per line, in order,
// would do — tick the clock, restamp the line, count the hit — without
// the set scans. Every line must be resident (see resident and gen).
func (c *PTECache) replayHits(lines []*pteBlock) {
	for _, b := range lines {
		c.clock++
		b.lastUse = c.clock
	}
	c.hits += uint64(len(lines))
}

// Snapshot returns the current statistics (the CacheStats contract).
func (c *PTECache) Snapshot() CacheStats { return CacheStats{Hits: c.hits, Misses: c.misses} }

// Reset zeroes the statistical counters per the CacheStats contract:
// resident lines and LRU recency are preserved (see CacheStats).
func (c *PTECache) Reset() { c.hits, c.misses = 0, 0 }

// Hits returns the hit count (thin view over Snapshot).
func (c *PTECache) Hits() uint64 { return c.hits }

// Misses returns the miss count (thin view over Snapshot).
func (c *PTECache) Misses() uint64 { return c.misses }

// Lookups returns hits + misses.
func (c *PTECache) Lookups() uint64 { return c.Snapshot().Lookups() }

// HitRate returns hits/lookups, or 0 with no lookups.
func (c *PTECache) HitRate() float64 { return c.Snapshot().HitRate() }

// RegisterMetrics publishes the cache's counters under prefix (e.g.
// "mmu.avc" yields mmu.avc.hits / mmu.avc.misses) at no hot-path cost.
func (c *PTECache) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+".hits", &c.hits)
	reg.RegisterCounter(prefix+".misses", &c.misses)
}

// SetTrace attaches an event tracer; fills and evictions are emitted
// as the given component (CompPWC or CompAVC). A nil tracer detaches.
func (c *PTECache) SetTrace(tr *obs.Tracer, comp obs.Component) {
	c.tr, c.comp = tr, comp
}

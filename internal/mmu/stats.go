package mmu

// CacheStats is the unified statistics snapshot every translation
// structure in this package (TLB, PTECache) exposes. The contract:
//
//   - Snapshot() returns the counters read at one instant, as a value.
//     Derived rates are methods of the snapshot, so Hits/Misses/Lookups
//     can never disagree with each other (Lookups is *defined* as
//     Hits + Misses, the invariant the property tests assert).
//   - Reset() zeroes the statistical counters only. Cache contents and
//     replacement recency (the LRU clock) are deliberately preserved:
//     Reset exists to exclude warm-up from measurements, and clearing
//     recency would perturb the very replacement behaviour being
//     measured. Counters registered with an obs.Registry observe the
//     reset — a snapshot taken afterwards starts from zero.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Lookups returns hits + misses.
func (s CacheStats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns hits/lookups, or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// MissRate returns misses/lookups, or 0 with no lookups.
func (s CacheStats) MissRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Misses) / float64(n)
	}
	return 0
}

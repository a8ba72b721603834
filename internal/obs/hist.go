package obs

import (
	"math"
	"math/bits"
)

// Histogram is a zero-allocation power-of-two-bucket histogram for
// hot-path distributions (walk memory references per translation,
// memory access latency in cycles, MLP ring occupancy). Bucket i holds
// values in [2^(i-1), 2^i-1] (bucket 0 holds exactly 0, bucket 1
// exactly 1); the top bucket absorbs everything at or above 2^62.
// Observe is pure shift/compare arithmetic on fixed-size fields — no
// map, no atomic, no allocation — so a component can keep one as a
// plain struct field and observe on every translation, preserving the
// zero-alloc contract BenchmarkTranslateInto pins.
//
// Values below denseLimit — every MLP occupancy and walk-memref count,
// and most memory latencies — are kept as exact per-value counts, so
// observing one is a single increment; Count and Snapshot fold them
// into the buckets, count, sum and max. The folding is exact, so a
// snapshot is identical to one taken of a buckets-only histogram fed
// the same values.
//
// Like the counter registry, a Histogram belongs to one
// single-goroutine simulation run; merging across runs happens on
// HistSnapshot values, whose bucket-wise sum is commutative — merged
// sweep histograms are byte-identical at any -j.
type Histogram struct {
	// dense[v] counts observations of v < denseLimit; they are not
	// reflected in buckets, count, sum or max until folded.
	dense   [denseLimit]uint64
	buckets [64]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// denseLimit bounds the values a Histogram counts exactly.
const denseLimit = 256

// bucketOf returns the bucket index of v: 0 for 0, otherwise the bit
// length of v, clamped to 63.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b > 63 {
		b = 63
	}
	return b
}

// bucketUpper returns the largest value bucket i can hold (the `le`
// bound of the Prometheus exposition and the percentile estimate).
func bucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if v < denseLimit {
		h.dense[v]++
		return
	}
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	n := h.count
	for _, c := range h.dense {
		n += c
	}
	return n
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot returns the histogram's current distribution with the
// derived percentiles filled in.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: h.buckets, Count: h.count, Sum: h.sum, Max: h.max}
	for v, n := range h.dense {
		if n == 0 {
			continue
		}
		s.Buckets[bucketOf(uint64(v))] += n
		s.Count += n
		s.Sum += uint64(v) * n
		if uint64(v) > s.Max {
			s.Max = uint64(v)
		}
	}
	s.finalize()
	return s
}

// HistSnapshot is a point-in-time reading of a Histogram. It carries
// the full bucket array — not just the derived percentiles — so
// snapshots merge losslessly: checkpoint-restored cells re-merge
// byte-identically to freshly computed ones. All fields are uint64
// (practical counts stay far below 2^53), so the JSON round-trip
// through a checkpoint is exact. P50/P95/P99 are derived from the
// buckets at finalize time; merging re-derives them from the summed
// buckets, never by combining percentiles.
type HistSnapshot struct {
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum"`
	Max     uint64     `json:"max"`
	P50     uint64     `json:"p50"`
	P95     uint64     `json:"p95"`
	P99     uint64     `json:"p99"`
	Buckets [64]uint64 `json:"buckets"`
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the buckets:
// the upper bound of the bucket containing the ceil(q*count)-th
// observation, clamped to the recorded maximum. Counts below 2^52 make
// the float math exact, so the estimate is deterministic.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < 64; i++ {
		cum += s.Buckets[i]
		if cum >= target {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			return u
		}
	}
	return s.Max
}

// finalize recomputes the derived percentile fields from the buckets.
func (s *HistSnapshot) finalize() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// merge adds src's raw distribution into s and re-derives the
// percentiles. Bucket-wise addition is commutative and associative, so
// merge order never changes the result.
func (s *HistSnapshot) merge(src HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += src.Buckets[i]
	}
	s.Count += src.Count
	s.Sum += src.Sum
	if src.Max > s.Max {
		s.Max = src.Max
	}
	s.finalize()
}

package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestHistogramBucketBoundaries pins the power-of-two bucket scheme:
// bucket 0 holds exactly 0, bucket 1 exactly 1, bucket i the range
// [2^(i-1), 2^i-1], and the top bucket absorbs everything at or above
// 2^62.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1 << 61, 62}, {1<<62 - 1, 62}, {1 << 62, 63}, {math.MaxUint64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		var h Histogram
		h.Observe(c.v)
		if s := h.Snapshot(); s.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d) landed outside bucket %d: %v", c.v, c.bucket, s.Buckets)
		}
	}
	// Every value must fall at or below its bucket's upper bound and
	// above the previous bucket's.
	for i := 1; i < 63; i++ {
		lo, hi := bucketUpper(i-1)+1, bucketUpper(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Errorf("bucket %d range [%d,%d] inconsistent: bucketOf = %d, %d",
				i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
	}
}

func TestHistogramObserveAndReset(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 107 || s.Max != 100 {
		t.Errorf("snapshot = count %d sum %d max %d, want 5/107/100", s.Count, s.Sum, s.Max)
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.P99 != 0 {
		t.Errorf("Reset left state: %+v", s)
	}
}

// TestHistogramQuantiles checks the percentile estimate on a known
// distribution: the quantile is the upper bound of the bucket holding
// the target observation, clamped to the recorded maximum.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 observations of 1, one of 1000: p50/p95 must report the small
	// bucket, p99 sits exactly on the 99th observation (still 1), and
	// the max clamps anything beyond.
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	s := h.Snapshot()
	if s.P50 != 1 || s.P95 != 1 || s.P99 != 1 {
		t.Errorf("p50/p95/p99 = %d/%d/%d, want 1/1/1", s.P50, s.P95, s.P99)
	}
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want max 1000 (clamped to recorded maximum)", got)
	}
	// Single observation: every quantile is that value.
	var one Histogram
	one.Observe(37)
	if s := one.Snapshot(); s.P50 != 37 || s.P99 != 37 {
		t.Errorf("single-observation quantiles = %d/%d, want 37/37", s.P50, s.P99)
	}
	// Empty histogram: all quantiles are zero.
	var empty Histogram
	if s := empty.Snapshot(); s.P50 != 0 || s.P99 != 0 || s.Quantile(1.0) != 0 {
		t.Errorf("empty-histogram quantiles nonzero: %+v", s)
	}
}

// randomHist builds a histogram snapshot from n seeded pseudo-random
// observations (small values mixed with heavy outliers, like walk-memref
// distributions).
func randomHist(rng *rand.Rand, n int) HistSnapshot {
	var h Histogram
	for i := 0; i < n; i++ {
		v := uint64(rng.Intn(8))
		if rng.Intn(10) == 0 {
			v = uint64(rng.Intn(1 << 20))
		}
		h.Observe(v)
	}
	return h.Snapshot()
}

// TestMergeCommutativeAssociative is the property that makes merged
// sweep histograms byte-identical at any -j: obs.Merge adds histograms
// bucket-wise and re-derives percentiles from the merged buckets, which
// is commutative and associative, so cell completion order never
// changes the exported snapshot.
func TestMergeCommutativeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		snap := func(n int) Snapshot {
			return Snapshot{Hists: map[string]HistSnapshot{"h": randomHist(rng, n)}}
		}
		a := snap(50 + rng.Intn(200))
		b := snap(rng.Intn(100))
		c := snap(1 + rng.Intn(300))

		abc := Merge(a, b, c)
		perms := [][]Snapshot{{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}}
		for _, p := range perms {
			if got := Merge(p...); !reflect.DeepEqual(got, abc) {
				t.Logf("seed %d: merge order changed result:\n%+v\nvs\n%+v", seed, got, abc)
				return false
			}
		}
		// Associativity: (a+b)+c == a+(b+c).
		left := Merge(Merge(a, b), c)
		right := Merge(a, Merge(b, c))
		if !reflect.DeepEqual(left, abc) || !reflect.DeepEqual(right, abc) {
			t.Logf("seed %d: grouping changed result", seed)
			return false
		}
		// The merge conserves mass.
		m, ha, hb, hc := abc.Hists["h"], a.Hists["h"], b.Hists["h"], c.Hists["h"]
		if m.Count != ha.Count+hb.Count+hc.Count || m.Sum != ha.Sum+hb.Sum+hc.Sum {
			t.Logf("seed %d: count/sum not conserved", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHistogramObserveZeroAlloc pins the hot-path contract: Observe on
// a plain struct field performs no allocation, so instrumented
// translation keeps BenchmarkTranslateInto at 0 allocs/op.
func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(i % 37)
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRegistryHistogramSnapshot wires a Histogram through the registry
// and checks the snapshot carries the distribution under its name, and
// that Collector.Add merges it.
func TestRegistryHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	reg.RegisterHistogram("mmu.conv4k.walk.memrefs", &h)
	for _, v := range []uint64{4, 4, 5, 9} {
		h.Observe(v)
	}
	s := reg.Snapshot()
	got, ok := s.Hists["mmu.conv4k.walk.memrefs"]
	if !ok {
		t.Fatalf("histogram missing from snapshot: %v", s.Hists)
	}
	if got.Count != 4 || got.Sum != 22 || got.Max != 9 {
		t.Errorf("snapshot hist = %+v, want count 4 sum 22 max 9", got)
	}

	coll := &Collector{}
	coll.Add(s)
	coll.Add(s)
	m := coll.Snapshot().Hists["mmu.conv4k.walk.memrefs"]
	if m.Count != 8 || m.Sum != 44 || m.Max != 9 {
		t.Errorf("collector merge = %+v, want count 8 sum 44 max 9", m)
	}
}

// refHist is the buckets-only histogram the dense fast path must be
// indistinguishable from: every value updates its bucket, count, sum
// and max directly.
type refHist struct {
	buckets         [64]uint64
	count, sum, max uint64
}

func (r *refHist) observe(v uint64) {
	r.buckets[bucketOf(v)]++
	r.count++
	r.sum += v
	if v > r.max {
		r.max = v
	}
}

func (r *refHist) snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: r.buckets, Count: r.count, Sum: r.sum, Max: r.max}
	s.finalize()
	return s
}

// TestHistogramMatchesBucketsOnly drives Histogram and the buckets-only
// reference through the same random Observe/Reset/Count/Snapshot
// sequences, with values drawn around the dense limit and the top
// bucket, and requires identical counts, snapshots and merges.
func TestHistogramMatchesBucketsOnly(t *testing.T) {
	edges := []uint64{0, 1, denseLimit - 1, denseLimit, denseLimit + 1, 1 << 62, 1<<62 - 1, math.MaxUint64}
	draw := func(rng *rand.Rand) uint64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return uint64(rng.Intn(denseLimit))
		case 2:
			return uint64(rng.Intn(4 * denseLimit))
		default:
			return rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		var r refHist
		var got, want []Snapshot
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(100); {
			case k == 0:
				h.Reset()
				r = refHist{}
			case k < 5:
				if h.Count() != r.count {
					t.Logf("seed %d op %d: Count %d, want %d", seed, op, h.Count(), r.count)
					return false
				}
			case k < 10:
				g, w := h.Snapshot(), r.snapshot()
				if g != w {
					t.Logf("seed %d op %d: snapshot\n%+v\nwant\n%+v", seed, op, g, w)
					return false
				}
				got = append(got, Snapshot{Hists: map[string]HistSnapshot{"h": g}})
				want = append(want, Snapshot{Hists: map[string]HistSnapshot{"h": w}})
			default:
				v := draw(rng)
				h.Observe(v)
				r.observe(v)
			}
		}
		if g, w := Merge(got...), Merge(want...); !reflect.DeepEqual(g, w) {
			t.Logf("seed %d: merged\n%+v\nwant\n%+v", seed, g, w)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkHistogramObserve measures one hot-path observation: a value
// under denseLimit (an exact count) and one above it (a bucket).
func BenchmarkHistogramObserve(b *testing.B) {
	for _, bc := range []struct {
		name string
		base uint64
	}{{"dense", 0}, {"bucket", denseLimit}} {
		b.Run(bc.name, func(b *testing.B) {
			var h Histogram
			for i := 0; i < b.N; i++ {
				h.Observe(bc.base + uint64(i&127))
			}
			histSink = h.Count()
		})
	}
}

var histSink uint64

package report

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
)

// TestMetricsDeterministicAcrossJobs is the -metrics acceptance
// criterion: the merged registry snapshot of a sweep — counters and
// histograms — must be byte-identical across -j 1, 2 and 8 (snapshots
// merge by commutative sum, histograms by bucket-wise addition with
// percentiles re-derived from the merged buckets, so completion order
// cannot leak in).
func TestMetricsDeterministicAcrossJobs(t *testing.T) {
	collect := func(jobs int) (obs.Snapshot, string) {
		coll := obs.NewCollector()
		if err := figure2(core.ProfileTiny, io.Discard, Options{Jobs: jobs, Metrics: coll}); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		s := coll.Snapshot()
		var buf strings.Builder
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("jobs=%d: WriteJSON: %v", jobs, err)
		}
		return s, buf.String()
	}
	seq, seqJSON := collect(1)
	for _, jobs := range []int{2, 8} {
		par, parJSON := collect(jobs)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("merged metrics differ between -j 1 and -j %d:\nj1: %v\nj%d: %v",
				jobs, seq.Counters, jobs, par.Counters)
		}
		if seqJSON != parJSON {
			t.Errorf("-metrics JSON not byte-identical between -j 1 and -j %d", jobs)
		}
	}
	if got, want := seq.Get("runner.cells.done"), uint64(len(core.ProfileTiny.Workloads())); got != want {
		t.Errorf("runner.cells.done = %d, want %d", got, want)
	}
	if seq.Get("mmu.tlb.hits")+seq.Get("mmu.tlb.misses") == 0 {
		t.Error("merged snapshot has no TLB activity")
	}
	// The deep-measurement histograms ride along in the same snapshot:
	// per-mode walk-memref distributions (Figure 2 runs the 4K and 2M
	// conventional modes), memory-access latency and MLP occupancy.
	for _, name := range []string{"mmu.conv4k.walk.memrefs", "mmu.conv2m.walk.memrefs",
		"memsys.latency.cycles", "accel.mlp.occupancy"} {
		h, ok := seq.Hists[name]
		if !ok {
			t.Errorf("histogram %q missing from merged snapshot", name)
			continue
		}
		if h.Count == 0 {
			t.Errorf("histogram %q is empty", name)
		}
	}
}

// TestProgressLinesCarryETAPrefix checks the live progress sink wraps
// each cell line in the [done/total pct eta] header and never writes to
// the artifact stream.
func TestProgressLinesCarryETAPrefix(t *testing.T) {
	var lines []string
	opts := Options{Jobs: 1, Progress: func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	var out strings.Builder
	if err := table3(core.ProfileTiny, &out, opts); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no progress lines emitted")
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "[") || !strings.Contains(l, "/") || !strings.Contains(l, "%]") && !strings.Contains(l, "eta") {
			t.Errorf("progress line missing [done/total pct eta] prefix: %q", l)
		}
	}
	if strings.Contains(out.String(), "[1/") {
		t.Error("progress leaked into the artifact stream")
	}
}

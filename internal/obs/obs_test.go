package obs

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistrySnapshotReadsLiveCounters(t *testing.T) {
	reg := NewRegistry()
	var hits, misses uint64
	reg.RegisterCounter("mmu.tlb.hits", &hits)
	reg.RegisterCounter("mmu.tlb.misses", &misses)

	hits, misses = 7, 3
	s := reg.Snapshot()
	if s.Get("mmu.tlb.hits") != 7 || s.Get("mmu.tlb.misses") != 3 {
		t.Fatalf("snapshot = %v", s.Counters)
	}
	// A later snapshot observes later increments: registration is by
	// pointer, not by value.
	hits = 100
	if got := reg.Snapshot().Get("mmu.tlb.hits"); got != 100 {
		t.Fatalf("second snapshot hits = %d, want 100", got)
	}
	// The first snapshot is a value: unaffected by the increment.
	if s.Get("mmu.tlb.hits") != 7 {
		t.Fatal("snapshot mutated by later counter activity")
	}
	if s.Get("no.such.counter") != 0 {
		t.Fatal("missing counters must read as zero")
	}
}

func TestRegistryNilAndReRegister(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCounter("x", nil) // ignored
	if got := reg.Snapshot().Get("x"); got != 0 {
		t.Fatalf("nil registration produced %d", got)
	}
	var a, b uint64 = 1, 2
	reg.RegisterCounter("x", &a)
	reg.RegisterCounter("x", &b) // replaces
	if got := reg.Snapshot().Get("x"); got != 2 {
		t.Fatalf("re-register: got %d, want 2", got)
	}
}

func TestMergeIsCommutative(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"x": 1, "y": 2}}
	b := Snapshot{Counters: map[string]uint64{"x": 10, "z": 3}}
	c := Snapshot{Counters: map[string]uint64{"y": 100}}
	ab := Merge(a, b, c)
	ba := Merge(c, b, a)
	if !reflect.DeepEqual(ab.Counters, ba.Counters) {
		t.Fatalf("merge order changed result: %v vs %v", ab.Counters, ba.Counters)
	}
	want := map[string]uint64{"x": 11, "y": 102, "z": 3}
	if !reflect.DeepEqual(ab.Counters, want) {
		t.Fatalf("merge = %v, want %v", ab.Counters, want)
	}
}

// TestCollectorParallelMergeIsDeterministic adds the same set of
// snapshots from many goroutines in random order and requires the
// merged result to equal the sequential sum — the property that makes
// `dvmrepro -metrics` byte-identical at every -j. Run under -race this
// also exercises the collector's locking.
func TestCollectorParallelMergeIsDeterministic(t *testing.T) {
	const cells = 64
	snaps := make([]Snapshot, cells)
	for i := range snaps {
		snaps[i] = Snapshot{Counters: map[string]uint64{
			"mmu.tlb.hits":   uint64(i * 3),
			"mmu.tlb.misses": uint64(i),
			"accel.cycles":   uint64(1000 + i),
		}}
	}
	sequential := NewCollector()
	for _, s := range snaps {
		sequential.Add(s)
	}
	sequential.Inc("runner.cells.done", cells)

	for trial := 0; trial < 4; trial++ {
		order := rand.New(rand.NewSource(int64(trial))).Perm(cells)
		par := &Collector{} // zero value must be usable
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(s Snapshot) {
				defer wg.Done()
				par.Add(s)
				par.Inc("runner.cells.done", 1)
			}(snaps[i])
		}
		wg.Wait()
		if !reflect.DeepEqual(par.Snapshot(), sequential.Snapshot()) {
			t.Fatalf("trial %d: parallel merge diverged:\npar: %v\nseq: %v",
				trial, par.Snapshot().Counters, sequential.Snapshot().Counters)
		}
	}
}

func TestCollectorNilIsSafe(t *testing.T) {
	var c *Collector
	c.Add(Snapshot{Counters: map[string]uint64{"x": 1}})
	c.Inc("y", 2)
	if got := c.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil collector accumulated %v", got.Counters)
	}
}

// TestSnapshotGoldenJSON pins the -metrics export format: indented
// JSON, sorted keys, trailing newline.
func TestSnapshotGoldenJSON(t *testing.T) {
	s := Snapshot{Counters: map[string]uint64{
		"mmu.tlb.misses":     41,
		"accel.cycles":       123456,
		"iommu.dav.identity": 99,
		"mmu.tlb.hits":       1041,
		"runner.cells.done":  15,
	}}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate by writing the got output to %s)", err, golden)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON export drifted from golden file %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestLoggerQuietAndTag(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "tool", false)
	lg.Statusf("at %d%%", 50)
	lg.Errorf("boom")
	out := buf.String()
	if !strings.Contains(out, "tool: at 50%\n") || !strings.Contains(out, "tool: boom\n") {
		t.Errorf("logger output = %q", out)
	}
	buf.Reset()
	q := NewLogger(&buf, "tool", true)
	q.Statusf("hidden")
	if buf.Len() != 0 {
		t.Errorf("quiet logger emitted status: %q", buf.String())
	}
	q.Errorf("visible")
	if !strings.Contains(buf.String(), "tool: visible") {
		t.Errorf("quiet logger suppressed error: %q", buf.String())
	}
}

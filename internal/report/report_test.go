package report

import (
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
)

func TestTable5(t *testing.T) {
	var b strings.Builder
	if err := Table5(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, feature := range []string{"Code Segment", "Heap Segment", "Stack Segment", "Page Tables", "Total"} {
		if !strings.Contains(out, feature) {
			t.Errorf("Table 5 missing %q:\n%s", feature, out)
		}
	}
	// The paper's total is 252 lines (39+1+56+63+78+15).
	if !strings.Contains(out, "252") {
		t.Errorf("Table 5 total wrong:\n%s", out)
	}
}

// TestTable3 renders the dataset table without a cache and from a cache
// Table 1 warmed: the output is byte-identical, and the cache serves
// Table 3 the very graphs the PageRank and CF workloads hold.
func TestTable3(t *testing.T) {
	var b strings.Builder
	if err := Table3(core.ProfileTiny, &b, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, ds := range []string{"FR", "Wiki", "LJ", "S24", "NF", "Bip1", "Bip2"} {
		if !strings.Contains(out, ds) {
			t.Errorf("Table 3 missing %s:\n%s", ds, out)
		}
	}

	cache := core.NewPreparedCache()
	defer cache.Close()
	opts := Options{Jobs: 2, Prepared: cache}
	if err := Table1(core.ProfileTiny, io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	var warm strings.Builder
	if err := Table3(core.ProfileTiny, &warm, opts); err != nil {
		t.Fatal(err)
	}
	if warm.String() != out {
		t.Errorf("Table 3 from a warm cache differs from a nil-cache run:\n%s\nwant:\n%s", warm.String(), out)
	}
	for _, w := range core.ProfileTiny.Workloads() {
		if w.Algorithm != "PageRank" && w.Algorithm != "CF" {
			continue
		}
		p, err := cache.Prepare(w)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cache.Graph(w.Dataset, w.Scale, w.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if g != p.G {
			t.Errorf("%s: cache.Graph is not the graph %s/%s holds", w.Dataset.Name, w.Algorithm, w.Dataset.Name)
		}
	}
}

func TestFigure10Render(t *testing.T) {
	if testing.Short() {
		t.Skip("full CPU traces")
	}
	var b strings.Builder
	if err := Figure10(&b, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, wl := range []string{"mcf", "bt", "cg", "canneal", "xsbench", "Average"} {
		if !strings.Contains(out, wl) {
			t.Errorf("Figure 10 missing %s:\n%s", wl, out)
		}
	}
}

func TestTable1Render(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	var lines []string
	progress := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	if err := Table1(core.ProfileTiny, &b, Options{Jobs: 1, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	// Table 1 covers PageRank (4 inputs) + CF (3 inputs) = 7 rows.
	if got := strings.Count(b.String(), "\n") - 3; got != 7 {
		t.Errorf("Table 1 rows = %d, want 7:\n%s", got, b.String())
	}
	if len(lines) != 7 {
		t.Errorf("progress lines = %d, want 7", len(lines))
	}
}

func TestFigure2Render(t *testing.T) {
	var b strings.Builder
	if err := Figure2(core.ProfileTiny, &b, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Average") {
		t.Errorf("Figure 2 missing average row:\n%s", out)
	}
	if !strings.Contains(out, "4K lookups") || !strings.Contains(out, "2M lookups") {
		t.Errorf("Figure 2 missing per-run lookup columns:\n%s", out)
	}
}

// TestRenderDeterministicAcrossJobs renders artifacts sequentially and with
// a saturated pool and requires byte-identical tables: parallelism must
// only reorder progress lines, never rows.
func TestRenderDeterministicAcrossJobs(t *testing.T) {
	renderers := []struct {
		name string
		fn   func(opts Options) (string, error)
	}{
		{"fig2", func(opts Options) (string, error) {
			var b strings.Builder
			err := Figure2(core.ProfileTiny, &b, opts)
			return b.String(), err
		}},
		{"table3", func(opts Options) (string, error) {
			var b strings.Builder
			err := Table3(core.ProfileTiny, &b, opts)
			return b.String(), err
		}},
		{"virt", func(opts Options) (string, error) {
			var b strings.Builder
			err := Virtualization(&b, opts)
			return b.String(), err
		}},
	}
	for _, r := range renderers {
		seq, err := r.fn(Options{Jobs: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", r.name, err)
		}
		par, err := r.fn(Options{Jobs: 8})
		if err != nil {
			t.Fatalf("%s parallel: %v", r.name, err)
		}
		if seq != par {
			t.Errorf("%s output differs between -j 1 and -j 8:\n--- j1:\n%s\n--- j8:\n%s", r.name, seq, par)
		}
	}
}

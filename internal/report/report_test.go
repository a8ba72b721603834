package report

import (
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
)

func TestTable5(t *testing.T) {
	var b strings.Builder
	if err := table5(core.ProfileTiny, &b, Options{}); err != nil {
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

// TestTable3 renders the dataset table without a cache and after Table
// 1 on a fresh cache: the output is byte-identical, and neither table
// generated a graph. The cache is dir-backed, and such a cache writes
// every graph it generates to its directory, so that directory must
// still be absent or empty.
func TestTable3(t *testing.T) {
	var b strings.Builder
	if err := table3(core.ProfileTiny, &b, Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, ds := range []string{"FR", "Wiki", "LJ", "S24", "NF", "Bip1", "Bip2"} {
		if !strings.Contains(out, ds) {
			t.Errorf("Table 3 missing %s:\n%s", ds, out)
		}
	}

	dir := filepath.Join(t.TempDir(), "graphs")
	cache := core.NewPreparedCacheDir(dir)
	defer cache.Close()
	opts := Options{Jobs: 2, Prepared: cache}
	if err := table1(core.ProfileTiny, io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	var warm strings.Builder
	if err := table3(core.ProfileTiny, &warm, opts); err != nil {
		t.Fatal(err)
	}
	if warm.String() != out {
		t.Errorf("Table 3 after Table 1 differs from a nil-cache run:\n%s\nwant:\n%s", warm.String(), out)
	}
	if n := graphFiles(t, dir); n != 0 {
		t.Errorf("Table 1 and Table 3 generated graphs: the cache dir holds %d files", n)
	}
}

// TestTable1Table3SmallAlloc pins what Table 1 and Table 3 allocate at
// the small profile. Both read only the datasets' shapes, so they build
// seven layouts and their page tables but generate no graph; generating
// the seven small graphs allocates about 266 MB.
//
// Not parallel: TotalAlloc counts every goroutine's allocations.
func TestTable1Table3SmallAlloc(t *testing.T) {
	opts := Options{Jobs: 1, Prepared: core.NewPreparedCache()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := table1(core.ProfileSmall, io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	if err := table3(core.ProfileSmall, io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Table 1 + Table 3 at the small profile allocate %d B", got)
	const limit = 4 << 20
	if got > limit {
		t.Errorf("Table 1 + Table 3 at the small profile allocate %d B, want under %d", got, limit)
	}
}

func TestFigure10Render(t *testing.T) {
	if testing.Short() {
		t.Skip("full CPU traces")
	}
	var b strings.Builder
	if err := figure10(core.ProfileTiny, &b, Options{Jobs: 1}); err != nil {
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
	if err := table1(core.ProfileTiny, &b, Options{Jobs: 1, Progress: progress}); err != nil {
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
	if err := figure2(core.ProfileTiny, &b, Options{Jobs: 1}); err != nil {
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
			err := figure2(core.ProfileTiny, &b, opts)
			return b.String(), err
		}},
		{"table3", func(opts Options) (string, error) {
			var b strings.Builder
			err := table3(core.ProfileTiny, &b, opts)
			return b.String(), err
		}},
		{"virt", func(opts Options) (string, error) {
			var b strings.Builder
			err := virtualization(core.ProfileTiny, &b, opts)
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

// TestTable1RecordsTableBuildSpans checks that Table 1 hands the
// options' span recorder to its page-table builds, as the simulating
// generators do: one 4K and one PE build per input.
func TestTable1RecordsTableBuildSpans(t *testing.T) {
	spans := obs.NewSpanRecorder()
	if err := table1(core.ProfileTiny, io.Discard, Options{Jobs: 1, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	builds := 0
	for _, s := range spans.Spans() {
		if strings.HasPrefix(s.Name, "ptbuild:") {
			builds++
		}
	}
	if want := 2 * len(table1Workloads(core.ProfileTiny)); builds != want {
		t.Errorf("a Table 1 sweep recorded %d ptbuild: spans, want %d", builds, want)
	}
}

package dvm_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
)

// TestGoldenTinyProfile regenerates every paper artifact at the tiny
// profile and compares the rendered output byte-for-byte against
// testdata/golden_tiny.txt — the exact stdout of
//
//	dvmrepro -profile tiny -j 1
//
// and the sweep's merged metrics snapshot, written through the same
// WriteJSON export as dvmrepro -metrics, against
// testdata/golden_tiny_metrics.json: every simulated counter and
// histogram (MLP occupancy, walk memory references, memory latency) is
// pinned too.
//
// This is the referee for every performance change: strength-reduced
// arithmetic, the scheduler's winner tree, shared page tables and the
// map-free allocator must all leave the simulated behaviour — and
// therefore every rendered digit and count — untouched, at every -j.
//
// Refresh (only when an intentional modeling change lands):
//
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q > testdata/golden_tiny.txt
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q -metrics testdata/golden_tiny_metrics.json
func TestGoldenTinyProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny-profile regeneration; skipped with -short")
	}
	want, err := os.ReadFile("testdata/golden_tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics, err := os.ReadFile("testdata/golden_tiny_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Jobs: 0 fans cells out one per CPU; the rendered bytes must still
	// match the sequential (-j 1) golden file exactly.
	opts := report.Options{Jobs: 0, Metrics: &obs.Collector{}, Prepared: core.NewPreparedCache()}
	var out bytes.Buffer
	// report.Sweep is the single rendering path cmd/dvmrepro and the
	// dvmserved job executor share: artifact order and the blank line
	// after each table are its contract, so the golden file pins both
	// front ends at once.
	if err := report.Sweep(prof, &out, opts, nil, nil); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("tiny-profile output diverged from testdata/golden_tiny.txt (got %d bytes, want %d); "+
			"if a modeling change is intentional, refresh the golden file per the comment above",
			out.Len(), len(want))
	}
	var metrics bytes.Buffer
	if err := opts.Metrics.Snapshot().WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metrics.Bytes(), wantMetrics) {
		t.Fatalf("tiny-profile metrics diverged from testdata/golden_tiny_metrics.json (got %d bytes, want %d); "+
			"if a modeling change is intentional, refresh the golden file per the comment above",
			metrics.Len(), len(wantMetrics))
	}
	// CellCount declares each generator's cell list a second time, as
	// the progress denominator a daemon job reports before any cell
	// runs; the finished sweep's cell counter must agree with it.
	if got, want := opts.Metrics.Snapshot().Get("runner.cells.done"), report.CellCount(prof, nil); got != uint64(want) {
		t.Errorf("sweep ran %d cells, but CellCount declares %d", got, want)
	}
}

// TestGoldenTinyExtendedModes pins the registry-driven extra columns:
// the Figure 8/9 matrix with every registered mode (paper set + SPARTA +
// VBI) must match testdata/golden_tiny_extended.txt byte-for-byte — the
// exact stdout of
//
//	dvmrepro -profile tiny -j 1 -q -modes extended -only fig8
//
// at both -j 1 and a fanned-out -j 8 (parallel cells must not reorder or
// change a digit). The seven paper columns inside this table are also
// implicitly pinned against the main golden: a backend-registry change
// that altered them would diverge both files.
//
// Refresh (only when an intentional modeling change lands):
//
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q -modes extended -only fig8 > testdata/golden_tiny_extended.txt
func TestGoldenTinyExtendedModes(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-profile regeneration; skipped with -short")
	}
	want, err := os.ReadFile("testdata/golden_tiny_extended.txt")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		opts := report.Options{
			Jobs:     jobs,
			Metrics:  &obs.Collector{},
			Prepared: core.NewPreparedCache(),
			Modes:    core.RegisteredModes(),
		}
		var out bytes.Buffer
		if err := report.Figure8And9(prof, &out, opts); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		fmt.Fprintln(&out) // dvmrepro prints a blank line after each artifact
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("-j %d: extended fig8/9 diverged from testdata/golden_tiny_extended.txt (got %d bytes, want %d); "+
				"if a modeling change is intentional, refresh per the comment above",
				jobs, out.Len(), len(want))
		}
		if got, want := opts.Metrics.Snapshot().Get("runner.cells.done"), report.CellCount(prof, map[string]bool{"fig8": true}); got != uint64(want) {
			t.Errorf("-j %d: fig8 ran %d cells, but CellCount declares %d", jobs, got, want)
		}
	}
}

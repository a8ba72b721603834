package dvm_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
// The sweep runs through a checkpoint, and the sorted keys of its cells
// must match testdata/golden_tiny_ckpt_keys.txt: a checkpoint written
// by an earlier build keeps resuming only while every cell keeps its
// key. The test then resumes the fig9 artifact alone from that
// checkpoint, which restores every cell, and requires the Figure 8/9
// block of the golden file under the fig9 key.
//
// Refresh (only when an intentional modeling change lands):
//
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q > testdata/golden_tiny.txt
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q -metrics testdata/golden_tiny_metrics.json
//
// and, only when a cell key changes on purpose (old checkpoints then
// stop resuming those cells):
//
//	go run ./cmd/dvmrepro -profile tiny -j 1 -q -checkpoint tiny.ckpt > /dev/null
//	sed -n 's/^{"key":"\([^"]*\)".*/\1/p' tiny.ckpt | LC_ALL=C sort > testdata/golden_tiny_ckpt_keys.txt; rm tiny.ckpt
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
	wantKeys, err := os.ReadFile("testdata/golden_tiny_ckpt_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "tiny.ckpt")
	ck, err := core.OpenCheckpoint(ckPath, prof.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs: 0 fans cells out one per CPU; the rendered bytes must still
	// match the sequential (-j 1) golden file exactly.
	opts := report.Options{Jobs: 0, Metrics: &obs.Collector{}, Prepared: core.NewPreparedCache(), Checkpoint: ck}
	var out bytes.Buffer
	// report.Sweep is the single rendering path cmd/dvmrepro and the
	// dvmserved job executor share: artifact order and the blank line
	// after each table are its contract, so the golden file pins both
	// front ends at once.
	if err := report.Sweep(prof, &out, opts, nil, nil); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
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
	// CellCount is counted from the same artifact list the sweep runs,
	// as the progress denominator a daemon job reports before any cell
	// runs; the finished sweep's cell counter must agree with it.
	if got, want := opts.Metrics.Snapshot().Get("runner.cells.done"), report.CellCount(prof, nil); got != uint64(want) {
		t.Errorf("sweep ran %d cells, but CellCount declares %d", got, want)
	}
	for key, want := range map[string]int{"table3": 7, "fig2": 15, "table1": 7, "fig8": 15, "fig9": 15,
		"table4": 9, "fig10": 5, "table5": 0, "ablations": 15, "virt": 4} {
		if got := report.CellCount(prof, map[string]bool{key: true}); got != want {
			t.Errorf("CellCount(%s) = %d, want %d", key, got, want)
		}
	}

	if got := checkpointKeys(t, ckPath); got != string(wantKeys) {
		t.Fatalf("checkpoint cell keys diverged from testdata/golden_tiny_ckpt_keys.txt:\n%s", got)
	}
	ck, err = core.OpenCheckpoint(ckPath, prof.Name, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var fig9 bytes.Buffer
	var observed []string
	err = report.Sweep(prof, &fig9, report.Options{Jobs: 1, Checkpoint: ck}, map[string]bool{"fig9": true},
		func(key string, render func() error) error {
			observed = append(observed, key)
			return render()
		})
	if err != nil {
		t.Fatalf("fig9 resume: %v", err)
	}
	if len(observed) != 1 || observed[0] != "fig9" {
		t.Errorf("fig9 resume rendered under keys %q, want [fig9]", observed)
	}
	start, end := bytes.Index(want, []byte("Figure 8:")), bytes.Index(want, []byte("\nTable 4:"))
	if !bytes.Equal(fig9.Bytes(), want[start:end+1]) {
		t.Errorf("fig9 resume diverged from the Figure 8/9 block of testdata/golden_tiny.txt:\n%s", fig9.String())
	}
}

// checkpointKeys returns the sorted cell keys of the checkpoint file at
// path, one per line.
func checkpointKeys(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var keys []string
	for _, line := range lines[1:] { // lines[0] is the header
		var rec struct{ Key string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("checkpoint record %q: %v", line, err)
		}
		keys = append(keys, rec.Key)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
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
	for _, jobs := range []int{1, 8} {
		opts := report.Options{Jobs: jobs, Metrics: &obs.Collector{}, Prepared: core.NewPreparedCache()}
		spec := report.Spec{Profile: "tiny", Artifacts: []string{"fig8"}, Modes: "extended"}
		prof, wanted, err := spec.Resolve(&opts)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := report.Sweep(prof, &out, opts, wanted, nil); err != nil {
			t.Fatalf("-j %d: %v", jobs, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("-j %d: extended fig8/9 diverged from testdata/golden_tiny_extended.txt (got %d bytes, want %d); "+
				"if a modeling change is intentional, refresh per the comment above",
				jobs, out.Len(), len(want))
		}
		if got, want := opts.Metrics.Snapshot().Get("runner.cells.done"), report.CellCount(prof, wanted); got != uint64(want) {
			t.Errorf("-j %d: fig8 ran %d cells, but CellCount declares %d", jobs, got, want)
		}
	}
}

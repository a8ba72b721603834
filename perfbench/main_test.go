package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in-process from the repository root's view
// (expected output under ../testdata) and decodes its last line.
func runBench(t *testing.T, golden string, args ...string) (int, output, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--golden", golden, "--out", t.TempDir())
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, out, stdout.String()
}

var goldenPath = filepath.Join("..", "testdata", "golden_tiny.txt")

// checkMetrics asserts the result holds exactly the wanted metrics, each
// with its unit, and that none but the tracing overhead (a difference of
// two walls) is zero.
func checkMetrics(t *testing.T, out output, want []specMetric) {
	t.Helper()
	if len(out.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(out.Metrics), len(want), out.Metrics)
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		case got.Value == 0 && m.Name != "trace.overhead_s":
			t.Errorf("metric %s is zero", m.Name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload once at the golden seed: it
// must pass its correctness gate and print every end-to-end metric of
// BENCHMARK.json with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in full")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, out, stdout := runBench(t, goldenPath, "--workload", w.Name, "--seed", "42", "--trace", "0")
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, out, stdout)
			}
			checkMetrics(t, out, s.EndToEnd)
		})
	}
}

// TestTracedRunPrintsPerLayerMetrics checks a traced run reports every
// per-layer metric of BENCHMARK.json, its tracing overhead and the
// self-time table.
func TestTracedRunPrintsPerLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice plus the probes")
	}
	s := loadSpec(t)
	code, out, stdout := runBench(t, goldenPath, "--workload", "serve-mix", "--seed", "3", "--trace", "1")
	if code != 0 || !out.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, out, stdout)
	}
	checkMetrics(t, out, s.PerLayer)
	for _, s := range []string{"tracing overhead:", "self time per layer", "layer serve.submit_s.p50", "trace.json"} {
		if !strings.Contains(stdout, s) {
			t.Errorf("traced output lacks %q", s)
		}
	}
}

// TestWrongExpectedOutputFails corrupts one Figure 8 row of the expected
// output: that workload's seven runs must count as failed and the
// command must exit nonzero.
func TestWrongExpectedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sim-fig8 in full")
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	const row = "BFS       Wiki   6.565"
	if !bytes.Contains(b, []byte(row)) {
		t.Fatalf("expected output lacks row %q", row)
	}
	bad := filepath.Join(t.TempDir(), "golden.txt")
	if err := os.WriteFile(bad, bytes.Replace(b, []byte(row), []byte("BFS       Wiki   6.566"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runBench(t, bad, "--workload", "sim-fig8", "--seed", "42", "--trace", "0")
	if code == 0 || out.Correct || out.Failed != 7 || out.Attempted != 105 {
		t.Fatalf("exit %d, result correct=%v attempted=%d failed=%d; want nonzero exit and 7 of 105 failed",
			code, out.Correct, out.Attempted, out.Failed)
	}
}

// TestAllocTable4 runs the workload BENCHMARK.json leaves out (README.md
// says why) so it keeps working: it must match Table 4 at the golden seed.
func TestAllocTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nine Table 4 cells")
	}
	code, out, stdout := runBench(t, goldenPath, "--workload", "alloc-table4", "--seed", "42", "--trace", "0")
	if code != 0 || !out.Correct || out.Attempted != 9 {
		t.Fatalf("exit %d, result %+v\n%s", code, out, stdout)
	}
	checkMetrics(t, out, []specMetric{{"cpu_s", "s"}, {"peak_rss_mib", "MiB"}, {"work_per_cpu_s", "1/s"}})
}

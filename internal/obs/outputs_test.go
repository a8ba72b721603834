package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/durable"
)

// startOutputs parses the run-output flags with every export pointed
// into dir and a 4-event trace ring, then arms them.
func startOutputs(t *testing.T, dir string, coll *Collector, lg *Logger) *Outputs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := AddOutputFlags(fs)
	if err := fs.Parse([]string{
		"-metrics", filepath.Join(dir, "metrics.json"),
		"-trace", filepath.Join(dir, "trace.jsonl"),
		"-trace-cap", "4",
		"-spans", filepath.Join(dir, "spans.json"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(lg, coll, nil); err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil || o.Spans == nil {
		t.Fatal("Start did not arm the tracer and span recorder")
	}
	for i := uint64(0); i < 10; i++ {
		o.Tracer.Emit(CompTLB, EvFill, i, i, 0)
	}
	o.Spans.Begin("cell").End()
	coll.Inc("mmu.tlb.hits", 7)
	return o
}

// TestOutputsFlush flushes a run, finished and interrupted: all three
// exports land and parse, trace.dropped is folded in exactly once, and
// the status lines say whether the exports are partial.
func TestOutputsFlush(t *testing.T) {
	for _, interrupted := range []bool{false, true} {
		dir := t.TempDir()
		coll := &Collector{}
		var log bytes.Buffer
		lg := NewLogger(&log, "test", false)
		o := startOutputs(t, dir, coll, lg)
		if err := o.Flush(lg, coll, interrupted); err != nil {
			t.Fatalf("interrupted=%v: %v", interrupted, err)
		}

		const dropped = 10 - 4
		if got := coll.Snapshot().Get("trace.dropped"); got != dropped {
			t.Errorf("interrupted=%v: collector trace.dropped = %d, want %d", interrupted, got, dropped)
		}
		var m Snapshot
		b, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if m.Get("trace.dropped") != dropped || m.Get("mmu.tlb.hits") != 7 {
			t.Errorf("interrupted=%v: metrics counters %v", interrupted, m.Counters)
		}

		f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("trace line %d: %v", lines+1, err)
			}
			if lines == 0 && rec["dropped"] != float64(dropped) {
				t.Errorf("trace header %v", rec)
			}
		}
		f.Close()
		if lines != 1+4 {
			t.Errorf("trace has %d lines, want a header and 4 events", lines)
		}

		var tr struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		b, err = os.ReadFile(filepath.Join(dir, "spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) != 1 || tr.TraceEvents[0].Ph != "X" {
			t.Errorf("spans %s, err %v", b, err)
		}

		for _, what := range []string{"metrics", "trace", "spans"} {
			line := what + " written to " + filepath.Join(dir, "")
			if interrupted {
				line = "partial " + line
			}
			if !strings.Contains(log.String(), line) {
				t.Errorf("interrupted=%v: no %q status line in\n%s", interrupted, line, log.String())
			}
		}
		if !interrupted && strings.Contains(log.String(), "partial") {
			t.Errorf("finished run logged partial exports:\n%s", log.String())
		}
	}
}

// TestOutputsFlushFailure fails every rename: Flush must return an
// error naming each export and leave no file under a final name and no
// temp file.
func TestOutputsFlushFailure(t *testing.T) {
	dir := t.TempDir()
	coll := &Collector{}
	lg := NewLogger(&bytes.Buffer{}, "test", false)
	o := startOutputs(t, dir, coll, lg)
	injected := errors.New("injected rename failure")
	durable.FailHook = func(s durable.Step) error {
		if s == durable.StepRename {
			return injected
		}
		return nil
	}
	defer func() { durable.FailHook = nil }()
	err := o.Flush(lg, coll, true)
	if !errors.Is(err, injected) {
		t.Fatalf("Flush: %v, want the injected failure", err)
	}
	for _, what := range []string{"partial metrics", "partial trace", "partial spans"} {
		if !strings.Contains(err.Error(), what) {
			t.Errorf("error %q does not name %s", err, what)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("%s left behind after failed exports", e.Name())
	}
}

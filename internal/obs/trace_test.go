package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4, MaskAll)
	for i := uint64(1); i <= 10; i++ {
		tr.Emit(CompTLB, EvFill, i, i, 0)
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: sequences 7..10 survive.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerMaskFilters(t *testing.T) {
	tr := NewTracer(16, Mask(1<<CompAVC))
	if tr.Wants(CompTLB) {
		t.Fatal("TLB must be disabled")
	}
	if !tr.Wants(CompAVC) {
		t.Fatal("AVC must be enabled")
	}
	tr.Emit(CompTLB, EvFill, 1, 1, 0) // dropped
	tr.Emit(CompAVC, EvFill, 2, 2, 0) // kept
	if tr.Total() != 1 || len(tr.Events()) != 1 || tr.Events()[0].Comp != CompAVC {
		t.Fatalf("mask filtering wrong: total=%d events=%v", tr.Total(), tr.Events())
	}
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Wants(CompIOMMU) {
		t.Fatal("nil tracer wants events")
	}
	tr.Emit(CompIOMMU, EvFault, 0, 0, 0) // must not panic
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestParseMask(t *testing.T) {
	for _, s := range []string{"", "all"} {
		if m, err := ParseMask(s); err != nil || m != MaskAll {
			t.Errorf("ParseMask(%q) = %v, %v; want MaskAll", s, m, err)
		}
	}
	m, err := ParseMask("iommu,avc")
	if err != nil || m != 1<<CompIOMMU|1<<CompAVC {
		t.Errorf("ParseMask(iommu,avc) = %v, %v", m, err)
	}
	if _, err := ParseMask("iommu,bogus"); err == nil {
		t.Error("ParseMask accepted unknown component")
	}
}

func TestComponentAndKindStrings(t *testing.T) {
	// Every defined component must have a real name (the JSONL format
	// and -trace-mask vocabulary depend on it).
	for c := Component(0); c < numComponents; c++ {
		if strings.HasPrefix(c.String(), "comp(") {
			t.Errorf("component %d has no name", c)
		}
	}
	kinds := []EventKind{EvDAVCheck, EvDAVIdentity, EvDAVFallback, EvPreloadIssue,
		EvPreloadSquash, EvFill, EvEvict, EvWalk, EvFault, EvMemRef, EvCtxSwitch}
	for _, k := range kinds {
		if strings.HasPrefix(k.String(), "event(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(8, MaskAll)
	tr.Emit(CompIOMMU, EvDAVCheck, 0x1000, 0, 1)
	tr.Emit(CompIOMMU, EvDAVIdentity, 0x1000, 0x1000, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 events:\n%s", len(lines), buf.String())
	}
	if lines[0] != `{"trace":"dvm","events":2,"emitted":2,"dropped":0}` {
		t.Errorf("header = %s", lines[0])
	}
	if lines[1] != `{"seq":1,"comp":"iommu","kind":"dav.check","va":"0x1000","pa":"0x0","aux":1}` {
		t.Errorf("event 1 = %s", lines[1])
	}
	if lines[2] != `{"seq":2,"comp":"iommu","kind":"dav.identity","va":"0x1000","pa":"0x1000","aux":0}` {
		t.Errorf("event 2 = %s", lines[2])
	}
}

func TestTracerDropped(t *testing.T) {
	tr := NewTracer(2, MaskAll)
	for i := 0; i < 5; i++ {
		tr.Emit(CompIOMMU, EvDAVCheck, 0x1000, 0, uint64(i))
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3 (5 emitted, ring of 2)", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if header != `{"trace":"dvm","events":2,"emitted":5,"dropped":3}` {
		t.Errorf("header = %s", header)
	}
	// A registry reading trace.dropped sees the same count.
	reg := NewRegistry()
	tr.Register(reg)
	if got := reg.Snapshot().Get("trace.dropped"); got != 3 {
		t.Errorf("trace.dropped metric = %d, want 3", got)
	}
	var nilTr *Tracer
	if nilTr.Dropped() != 0 {
		t.Error("nil tracer Dropped() != 0")
	}
}

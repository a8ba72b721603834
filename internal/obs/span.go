package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one completed phase interval: a named stretch of host wall
// time on one worker lane. Start/End are offsets from the recorder's
// creation, so spans from every goroutine share one clock.
type Span struct {
	Name   string        `json:"name"`
	Worker int           `json:"worker"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// defaultSpanCap bounds a recorder so a runaway sweep cannot grow the
// span slice without limit; spans beyond it are counted, not kept.
const defaultSpanCap = 1 << 20

// SpanRecorder collects phase spans (Prepare, CSR build, page-table
// build, timing replay, per-cell execution)
// for export as Chrome trace-event JSON. Spans measure host wall time
// — they are a debugging artifact like the event tracer, written to
// their own -spans file and never part of a deterministic output.
//
// Worker lanes model runner.Budget token holders: Begin assigns the
// lowest lane not currently occupied by an open span and End releases
// it, so concurrently open spans render on separate Perfetto rows and
// a sequential run collapses onto lane 0. All methods are
// goroutine-safe and nil-safe (a nil recorder records nothing), so
// instrumentation sites need exactly one nil check.
type SpanRecorder struct {
	mu      sync.Mutex
	start   time.Time
	spans   []Span
	lanes   []bool
	max     int
	dropped uint64
}

// NewSpanRecorder creates a recorder; its clock starts now.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{start: time.Now(), max: defaultSpanCap}
}

// ActiveSpan is an open span returned by Begin; End closes it. A nil
// ActiveSpan (from a nil recorder) no-ops.
type ActiveSpan struct {
	r     *SpanRecorder
	name  string
	lane  int
	begin time.Duration
}

// Begin opens a span on the lowest free worker lane. The start time is
// sampled inside the critical section — after any concurrent End has
// released its lane and recorded its (earlier-sampled) end time — so
// spans sharing a lane never overlap and each Perfetto row renders as a
// clean sequence.
func (r *SpanRecorder) Begin(name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	now := time.Since(r.start)
	lane := 0
	for ; lane < len(r.lanes) && r.lanes[lane]; lane++ {
	}
	if lane == len(r.lanes) {
		r.lanes = append(r.lanes, false)
	}
	r.lanes[lane] = true
	r.mu.Unlock()
	return &ActiveSpan{r: r, name: name, lane: lane, begin: now}
}

// End closes the span, records it and releases its lane.
func (a *ActiveSpan) End() {
	if a == nil || a.r == nil {
		return
	}
	r := a.r
	end := time.Since(r.start)
	r.mu.Lock()
	r.lanes[a.lane] = false
	r.add(Span{Name: a.name, Worker: a.lane, Start: a.begin, End: end})
	r.mu.Unlock()
	a.r = nil
}

// Add records one pre-built span (tests and external exporters).
func (r *SpanRecorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.add(s)
	r.mu.Unlock()
}

// add records a span; the caller holds r.mu.
func (r *SpanRecorder) add(s Span) {
	if r.max > 0 && len(r.spans) >= r.max {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Spans returns a copy of the recorded spans, in recording order.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Dropped returns how many spans the capacity bound discarded.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// chromeEvent is one complete ("ph":"X") trace event in the Chrome
// trace-event format ui.perfetto.dev loads; ts and dur are in
// microseconds.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
}

// chromeTrace is the top-level Chrome trace-event JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the recorded spans as Chrome trace-event
// JSON: one complete event per span, pid 1, tid = worker lane. Events
// are sorted by (start, end, lane, name) so the exported bytes depend
// only on the recorded set, not goroutine completion order.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Name < b.Name
	})
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name,
			Cat:  "dvm",
			Ph:   "X",
			Ts:   s.Start.Microseconds(),
			Dur:  (s.End - s.Start).Microseconds(),
			Pid:  1,
			Tid:  s.Worker,
		}
	}
	b, err := json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayUnit: "ms"}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

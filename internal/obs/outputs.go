package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/dvm-sim/dvm/internal/durable"
)

// Outputs is the run-output set the sweep commands (dvmrepro, dvmsim)
// share: the -metrics, -trace, -trace-mask, -trace-cap, -spans and
// -http flags, the tracer, span recorder and HTTP surface they arm, and
// the one Flush that ends a run, finished or interrupted.
type Outputs struct {
	// MetricsPath and HTTPAddr are the -metrics and -http values; empty
	// means the output is off.
	MetricsPath, HTTPAddr           string
	tracePath, traceMask, spansPath string
	traceCap                        int

	// Tracer and Spans are armed by Start when -trace and -spans are
	// set (nil otherwise); the command hands them to its runs.
	Tracer *Tracer
	Spans  *SpanRecorder
	srv    *Server
}

// AddOutputFlags declares the run-output flags on fs.
func AddOutputFlags(fs *flag.FlagSet) *Outputs {
	o := &Outputs{}
	fs.StringVar(&o.MetricsPath, "metrics", "", "write the merged metrics-registry snapshot as JSON to this file")
	fs.StringVar(&o.tracePath, "trace", "", "write a JSONL event trace to this file (see -trace-mask, -trace-cap)")
	fs.StringVar(&o.traceMask, "trace-mask", "all", "comma-separated components to trace: iommu,tlb,pwc,avc,bmcache,bitmap,engine,chaos,block or 'all'")
	fs.IntVar(&o.traceCap, "trace-cap", 0, "event ring capacity (0 = default 65536; older events are overwritten)")
	fs.StringVar(&o.HTTPAddr, "http", "", "serve the live observability surface (/metrics, /progress, /debug/pprof/) on this address (e.g. localhost:6060)")
	fs.StringVar(&o.spansPath, "spans", "", "write phase spans as Chrome trace-event JSON to this file (load in ui.perfetto.dev)")
	return o
}

// Start arms what the flags ask for: the tracer (an unknown -trace-mask
// component is an error), the span recorder, and the -http surface
// serving coll and the progress probe (nil serves 204).
func (o *Outputs) Start(lg *Logger, coll *Collector, progress func() (ProgressState, bool)) error {
	if o.tracePath != "" {
		mask, err := ParseMask(o.traceMask)
		if err != nil {
			return err
		}
		o.Tracer = NewTracer(o.traceCap, mask)
	}
	if o.spansPath != "" {
		o.Spans = NewSpanRecorder()
	}
	if o.HTTPAddr != "" {
		srv, err := StartHTTP(o.HTTPAddr, lg, HTTPOptions{
			Metrics:  coll.Snapshot,
			Volatile: coll.VolatileSnapshot,
			Progress: progress,
		})
		if err != nil {
			return err
		}
		o.srv = srv
	}
	return nil
}

// Flush ends the run's outputs. It folds the tracer's final drop count
// into coll as trace.dropped — only now, because the tracer is shared by
// every cell and a mid-run reading would depend on completion order —
// then writes -metrics, -trace and -spans, each through
// durable.WriteFile (mode 0644), logs a status line per export
// ("partial ..." when interrupted), and drains -http so an in-flight
// scrape completes instead of seeing a connection reset. Every export
// is attempted; the failures come back joined.
func (o *Outputs) Flush(lg *Logger, coll *Collector, interrupted bool) error {
	defer o.srv.Shutdown(2 * time.Second)
	if o.Tracer != nil {
		coll.Inc("trace.dropped", o.Tracer.Dropped())
	}
	partial := ""
	if interrupted {
		partial = "partial "
	}
	var errs []error
	export := func(what, path string, write func(io.Writer) error, detail func() string) {
		if path == "" {
			return
		}
		if err := durable.WriteFile(path, 0o644, func(f *os.File) error { return write(f) }); err != nil {
			errs = append(errs, fmt.Errorf("%s%s: %w", partial, what, err))
			return
		}
		lg.Statusf("%s%s written to %s%s", partial, what, path, detail())
	}
	export("metrics", o.MetricsPath, func(w io.Writer) error { return coll.Snapshot().WriteJSON(w) },
		func() string { return "" })
	export("trace", o.tracePath, o.Tracer.WriteJSONL, func() string {
		return fmt.Sprintf(" (%d events emitted, %d retained)", o.Tracer.Total(), len(o.Tracer.Events()))
	})
	export("spans", o.spansPath, o.Spans.WriteChromeTrace, func() string {
		return fmt.Sprintf(" (%d recorded, %d dropped); load in ui.perfetto.dev", len(o.Spans.Spans()), o.Spans.Dropped())
	})
	return errors.Join(errs...)
}

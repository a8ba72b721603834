package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// ProgressState is the live sweep progress served at /progress,
// mirroring the "[done/total pct eta]" prefix of the progress lines.
type ProgressState struct {
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	Percent        float64 `json:"percent"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	EtaSeconds     float64 `json:"eta_seconds"`
}

// HTTPOptions wires the live observability surface to its data
// sources. Every field is optional: a nil source serves the empty
// snapshot (metrics) or 204 No Content (progress), so -http is useful
// on commands that only want pprof.
type HTTPOptions struct {
	// Metrics supplies the deterministic merged snapshot (counters +
	// histograms) rendered at /metrics.
	Metrics func() Snapshot
	// Volatile supplies host-time distributions (per-cell wall time)
	// appended to /metrics; they never enter the deterministic export.
	Volatile func() Snapshot
	// Progress supplies the live sweep state for /progress; ok=false
	// means no sweep is currently running.
	Progress func() (ProgressState, bool)
}

// AddRoutes registers the live observability surface on an existing
// mux: net/http/pprof under /debug/pprof/, the merged metrics registry
// in Prometheus text exposition format at /metrics, and the live sweep
// progress as JSON at /progress. StartHTTP uses it for the harness
// commands' -http flag; dvmserved mounts the same surface on its own
// job-API mux.
func AddRoutes(mux *http.ServeMux, opts HTTPOptions, lg *Logger) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var det, vol Snapshot
		if opts.Metrics != nil {
			det = opts.Metrics()
		}
		if opts.Volatile != nil {
			vol = opts.Volatile()
		}
		if err := WritePrometheus(w, det, vol); err != nil && lg != nil {
			lg.Errorf("metrics endpoint: %v", err)
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Progress == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		st, ok := opts.Progress()
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(st); err != nil && lg != nil {
			lg.Errorf("progress endpoint: %v", err)
		}
	})
}

// Server is a running observability HTTP listener. It exists so
// commands can drain it on the way out: Shutdown lets an in-flight
// /metrics scrape finish instead of seeing its connection reset when
// the process exits mid-response.
type Server struct {
	srv *http.Server
}

// Shutdown gracefully drains the server: no new connections are
// accepted and in-flight requests get up to timeout to complete. It is
// nil-safe, so commands call it unconditionally on every exit path
// whether or not -http was set.
func (s *Server) Shutdown(timeout time.Duration) {
	if s == nil || s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

// StartHTTP serves the live observability surface on addr in the
// background and returns the running server: net/http/pprof under
// /debug/pprof/, the merged metrics registry in Prometheus text
// exposition format at /metrics, and the live sweep progress as JSON
// at /progress. The listener runs until the process exits or the
// returned server is Shutdown.
func StartHTTP(addr string, lg *Logger, opts HTTPOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: http listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	AddRoutes(mux, opts, lg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "dvm observability surface\n\n/metrics\n/progress\n/debug/pprof/\n")
	})
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && lg != nil {
			lg.Errorf("http server: %v", err)
		}
	}()
	bound := ln.Addr().String()
	if lg != nil {
		lg.Statusf("observability surface on http://%s/ (/metrics, /progress, /debug/pprof/)", bound)
	}
	return &Server{srv: srv}, nil
}

// promName sanitizes a registry name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_', and the result is
// prefixed with "dvm_" (mmu.tlb.hits -> dvm_mmu_tlb_hits).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("dvm_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders snapshots in the Prometheus text exposition
// format: every counter as a counter metric, every histogram as a
// cumulative-bucket histogram metric (_bucket{le="..."} lines up to the
// highest populated power-of-two bound, then +Inf, _sum and _count).
// Later snapshots may add metrics but must not repeat names; callers
// pass the deterministic snapshot first and the volatile one second.
func WritePrometheus(w io.Writer, snaps ...Snapshot) error {
	seen := map[string]bool{}
	for _, s := range snaps {
		for _, name := range s.Names() {
			if seen[name] {
				continue
			}
			seen[name] = true
			p := promName(name)
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[name]); err != nil {
				return err
			}
		}
		histNames := make([]string, 0, len(s.Hists))
		for name := range s.Hists {
			if !seen[name] {
				seen[name] = true
				histNames = append(histNames, name)
			}
		}
		sort.Strings(histNames)
		for _, name := range histNames {
			if err := writePromHist(w, promName(name), s.Hists[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist renders one histogram in exposition format.
func writePromHist(w io.Writer, p string, h HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
		return err
	}
	top := -1
	for i, c := range h.Buckets {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top && i < 63; i++ {
		cum += h.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", p, bucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", p, h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", p, h.Sum, p, h.Count); err != nil {
		return err
	}
	return nil
}

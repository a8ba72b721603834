// Command dvmserved runs the simulation matrix as a service: a
// long-running daemon accepting sweep jobs over HTTP/JSON, sharding
// their experiment cells across a persistent worker fleet, and
// persisting every completed cell so that neither a crash nor a
// restart loses work.
//
// Usage:
//
//	dvmserved -addr localhost:8080 -dir /var/lib/dvmserved [-j N]
//	          [-cell-timeout 5m] [-sync-every 1] [-q]
//
// Submit a job (its sweep fields — profile, artifacts, modes,
// chaos_rate, chaos_seed — are a report.Spec, the same description
// dvmrepro builds from its flags):
//
//	curl -X POST localhost:8080/jobs -d '{"profile":"tiny"}'
//	curl localhost:8080/jobs/j0001                # status + progress
//	curl localhost:8080/jobs/j0001/result         # rendered tables
//	curl localhost:8080/jobs/j0001/metrics        # metrics snapshot
//	curl -X DELETE localhost:8080/jobs/j0001      # cancel
//
// Durability: every completed experiment cell appends (and fsyncs, at
// the -sync-every cadence) to the job's checkpoint before it counts as
// done, and every job state transition is an atomic temp+rename of the
// job record — so a kill -9 mid-sweep loses at most the in-flight
// cells. On restart the daemon rescans -dir, truncates torn checkpoint
// tails, and resumes every incomplete job; the resumed job's tables and
// metrics are byte-identical to an uninterrupted run (the CI crash-
// recovery step pins this against single-shot dvmrepro output).
//
// Shutdown: SIGTERM (or the first Ctrl-C) drains gracefully — admission
// stops, in-flight cells finish and are checkpointed, every running job
// is re-queued durably, and the process exits 0 after reporting what
// will resume. A second Ctrl-C exits immediately (130); completed cells
// are already on disk, so even that loses nothing durable.
//
// Fairness: jobs carry an optional "client" tag; the daemon carves its
// global -j worker budget into per-client fair shares, recomputed as
// tenants come and go, so one client's backlog cannot starve another's
// job. Every job always runs at least one worker regardless of share.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	dir := flag.String("dir", "dvmserved-jobs", "durable job store directory")
	jobs := flag.Int("j", 0, "max concurrent experiment cells across all jobs (0 = one per CPU)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell watchdog (0 = none); a wedged cell fails its job instead of hanging the daemon")
	syncEvery := flag.Int("sync-every", 1, "checkpoint fsync cadence in cells (1 = every cell; raise for sweeps of thousands of cheap cells)")
	quiet := flag.Bool("q", false, "suppress status output")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, "dvmserved", *quiet)
	coll := &obs.Collector{}

	store, err := serve.NewStore(*dir)
	if err != nil {
		lg.Exitf(1, "%v", err)
	}
	sched, err := serve.NewScheduler(store, serve.Config{
		Jobs:        *jobs,
		CellTimeout: *cellTimeout,
		SyncEvery:   *syncEvery,
		Metrics:     coll,
		Logf:        lg.Statusf,
	})
	if err != nil {
		lg.Exitf(1, "%v", err)
	}

	api := serve.NewAPI(sched, obs.HTTPOptions{
		Metrics:  coll.Snapshot,
		Volatile: coll.VolatileSnapshot,
		Progress: sched.Progress,
	}, lg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Exitf(1, "listen %s: %v", *addr, err)
	}
	srv := &http.Server{Handler: api.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			lg.Exitf(1, "http: %v", err)
		}
	}()
	lg.Statusf("serving on http://%s/ (job store %s, %d-cell fsync cadence)", ln.Addr(), *dir, *syncEvery)

	// SIGTERM or the first Ctrl-C drains gracefully; a second Ctrl-C
	// aborts immediately (completed cells are already durable).
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	lg.Statusf("%v: draining (in-flight cells finish and checkpoint; Ctrl-C again to abort)", sig)
	hard := make(chan struct{})
	go func() {
		<-sigs
		close(hard)
	}()
	drained := make(chan []string, 1)
	go func() { drained <- sched.Drain() }()
	select {
	case ids := <-drained:
		sched.Close()
		if len(ids) > 0 {
			lg.Statusf("drained; %d job(s) will resume on restart: %v", len(ids), ids)
		} else {
			lg.Statusf("drained; no jobs in flight")
		}
		// Let in-flight HTTP responses (a last status poll) finish.
		shutdownHTTP(srv, 2*time.Second)
		fmt.Fprintln(os.Stderr, "dvmserved: bye")
	case <-hard:
		lg.Statusf("second signal: aborting now (checkpointed cells are durable)")
		os.Exit(130)
	}
}

// shutdownHTTP drains the daemon's HTTP server with a timeout.
func shutdownHTTP(srv *http.Server, d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	srv.Shutdown(ctx)
}

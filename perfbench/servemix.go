package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/serve"
)

// serve-mix shape: the interactive tenant's tiny table1 jobs, served
// from the warm PreparedCache, are almost entirely service path; the
// batch tenant's compute jobs (six of each kind) are spread through
// them at seeded places. Jobs run one at a time, closed loop: each
// client submits its next job only after the previous one's result is
// checked.
//
// One job at a time is deliberate: with the two tenants' jobs running
// concurrently, both vCPUs of the reference box were busy and host
// steal moved every figure far more from run to run (README.md has the
// numbers).
const (
	serveWorkers     = 2 // dvmserved -j 2, one per vCPU of the reference box
	interactiveJobs  = 400
	batchJobsPerKind = 6
	pollInterval     = 5 * time.Millisecond
	jobTimeout       = 2 * time.Minute
)

var batchKinds = []string{"virt", "table3", "fig10"}

// serveMix drives an in-process serve.Scheduler behind serve.NewAPI's
// handler on a loopback listener. Set-up is store and scheduler start
// plus one warm-up job per job kind.
type serveMix struct {
	env runEnv
	srv *daemon
	n   int
}

func newServeMix(env runEnv) bench { return &serveMix{env: env} }

// daemon is one running service: store, scheduler and HTTP server.
type daemon struct {
	dir    string
	sched  *serve.Scheduler
	server *http.Server
	served chan struct{}
	base   string
}

func startDaemon(dir string) (*daemon, error) {
	store, err := serve.NewStore(dir)
	if err != nil {
		return nil, err
	}
	sched, err := serve.NewScheduler(store, serve.Config{Jobs: serveWorkers, Metrics: &obs.Collector{}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	api := serve.NewAPI(sched, obs.HTTPOptions{}, obs.NewLogger(io.Discard, "perfbench", true))
	d := &daemon{dir: dir, sched: sched, served: make(chan struct{}),
		server: &http.Server{Handler: api.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		d.server.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the listener down, waits for the scheduler's jobs to end
// and deletes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.server.Shutdown(ctx) // a timeout only leaves idle connections to the exit
	<-d.served
	d.sched.Drain()
	d.sched.Close()
	os.RemoveAll(d.dir)
}

func (s *serveMix) close() {
	if s.srv != nil {
		s.srv.stop()
		s.srv = nil
	}
}

func (s *serveMix) setup() error {
	s.n++
	d, err := startDaemon(fmt.Sprintf("%s/serve-%d", s.env.workDir, s.n))
	if err != nil {
		return err
	}
	s.srv = d
	// One warm-up job per kind, so every kind's prepared inputs are
	// cached before the measured phase.
	c := newClient(d.base, "warmup", s.env.seed, nil, 0)
	defer c.hc.CloseIdleConnections()
	for _, k := range append([]string{"table1"}, batchKinds...) {
		if _, err := c.job(k, -1, s.env.golden); err != nil {
			return fmt.Errorf("warm-up %s job: %w", k, err)
		}
	}
	return nil
}

// schedule is the measured phase's job order: each entry is a tenant
// and a job kind. The batch jobs cycle through their kinds in a fixed
// order; their places among the interactive jobs come from the seed.
// (A seeded kind order moved peak RSS by 16% between seeds: which
// compute jobs run back to back decides the heap's high-water mark.)
func schedule(seed int64) [][2]string {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(interactiveJobs)[:batchJobsPerKind*len(batchKinds)]
	sort.Ints(slots)
	at := map[int]string{}
	for i, slot := range slots {
		at[slot] = batchKinds[i%len(batchKinds)]
	}
	var out [][2]string
	for i := 0; i < interactiveJobs; i++ {
		if k, ok := at[i]; ok {
			out = append(out, [2]string{"batch", k})
		}
		out = append(out, [2]string{"interactive", "table1"})
	}
	return out
}

func (s *serveMix) measure(tr *tracer) pass {
	var p pass
	clients := map[string]*client{}
	roots := map[string]int{}
	for i, name := range []string{"interactive", "batch"} {
		clients[name] = newClient(s.srv.base, name, s.env.seed+int64(i), tr, 2*i)
		roots[name] = tr.begin("client/"+name, "bench", -1, 2*i)
	}
	var inter, all []jobSample
	for i, job := range schedule(s.env.seed) {
		tenant, kind := job[0], job[1]
		js, err := clients[tenant].job(kind, roots[tenant], s.env.golden)
		p.attempted++
		if err != nil {
			p.fail("%s job %d (%s): %v", tenant, i, kind, err)
			continue
		}
		p.work++
		all = append(all, js)
		if tenant == "interactive" {
			inter = append(inter, js)
			p.jobs = append(p.jobs, js.total)
		}
	}
	for name, c := range clients {
		tr.end(roots[name])
		c.hc.CloseIdleConnections()
	}
	if tr != nil {
		p.layers, p.text = serveLayers(inter, all)
	}
	return p
}

// jobSample is one job's client-side timeline, in seconds.
type jobSample struct {
	kind   string
	submit float64 // POST /jobs round trip
	wait   float64 // submit -> first poll that sees the job running (or done)
	run    float64 // that poll -> the poll that sees it terminal
	total  float64 // submit -> terminal
	result float64 // GET /jobs/{id}/result round trip
	status []float64
}

// client is one tenant's connection to the daemon.
type client struct {
	base, tenant string
	hc           *http.Client
	rng          *rand.Rand // poll phase
	tr           *tracer
	lane         int
}

func newClient(base, tenant string, seed int64, tr *tracer, lane int) *client {
	return &client{base: base, tenant: tenant, tr: tr, lane: lane, rng: rand.New(rand.NewSource(seed)),
		hc: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// call makes one request and returns the body of a response with the
// wanted status code, timing the round trip in a span.
func (c *client) call(name, method, path string, body []byte, want, parent int) ([]byte, float64, error) {
	sp := c.tr.begin(name, "serve", parent, c.lane+1)
	defer c.tr.end(sp)
	t := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t).Seconds()
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != want {
		return nil, d, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, d, nil
}

// job submits one job of the given artifact kind, polls it to a
// terminal state, fetches its result and checks it against the
// expected output. Any HTTP error, a terminal state other than done,
// or a wrong result is an error.
func (c *client) job(kind string, parent int, g golden) (jobSample, error) {
	js := jobSample{kind: kind}
	want, err := g.section(artifactTitle[kind])
	if err != nil {
		return js, err
	}
	sp := c.tr.begin("job/"+kind, "serve.job", parent, c.lane)
	defer c.tr.end(sp)
	spec, _ := json.Marshal(serve.JobSpec{Profile: "tiny", Artifacts: []string{kind}, Client: c.tenant}) // a plain struct always marshals
	t0 := time.Now()
	b, d, err := c.call("submit", http.MethodPost, "/jobs", spec, http.StatusAccepted, sp)
	js.submit = d
	if err != nil {
		return js, err
	}
	var j serve.Job
	if err := json.Unmarshal(b, &j); err != nil {
		return js, fmt.Errorf("decoding submit response: %w", err)
	}
	var seen time.Time
	// The first poll comes after a random fraction of the interval, so
	// observed latencies are not quantized to whole poll intervals.
	time.Sleep(time.Duration(c.rng.Int63n(int64(pollInterval))))
	for {
		b, d, err := c.call("status", http.MethodGet, "/jobs/"+j.ID, nil, http.StatusOK, sp)
		js.status = append(js.status, d)
		if err != nil {
			return js, err
		}
		var st serve.Status
		if err := json.Unmarshal(b, &st); err != nil {
			return js, fmt.Errorf("decoding status: %w", err)
		}
		now := time.Now()
		terminal := st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateCancelled
		if seen.IsZero() && (st.State == serve.StateRunning || terminal) {
			seen = now
			js.wait = now.Sub(t0).Seconds()
		}
		if terminal {
			js.run = now.Sub(seen).Seconds()
			js.total = now.Sub(t0).Seconds()
			if st.State != serve.StateDone {
				return js, fmt.Errorf("job %s ended %s: %s", j.ID, st.State, st.Error)
			}
			break
		}
		if now.Sub(t0) > jobTimeout {
			return js, fmt.Errorf("job %s still %s after %v", j.ID, st.State, jobTimeout)
		}
		time.Sleep(pollInterval)
	}
	b, js.result, err = c.call("result", http.MethodGet, "/jobs/"+j.ID+"/result", nil, http.StatusOK, sp)
	if err != nil {
		return js, err
	}
	// A job's result is its table followed by report.Sweep's blank line.
	if got := string(b); got != want+"\n" {
		return js, fmt.Errorf("job %s (%s) result differs from the expected output on lines %v", j.ID, kind, diffLines(got, want+"\n"))
	}
	return js, nil
}

// serveLayers derives serve-mix's per-layer latencies from the traced
// pass's samples (interactive jobs, and all jobs for the status reads
// and per-kind times). Percentiles without minBeyond samples beyond
// them are replaced by the mean and the sample count.
func serveLayers(interactive, all []jobSample) ([]metric, []string) {
	var out []metric
	var text []string
	pick := func(xs []jobSample, f func(jobSample) float64) []float64 {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = f(x)
		}
		return v
	}
	add := func(name string, xs []float64, qs ...float64) {
		for _, q := range qs {
			label := fmt.Sprintf("%s.p%.0f", name, 100*q)
			if v, ok := quantile(xs, q); ok {
				out = append(out, metric{label, "s", v})
				continue
			}
			var sum float64
			for _, x := range xs {
				sum += x
			}
			text = append(text, fmt.Sprintf("layer %s: n=%d too few for p%.0f; mean %.6f s", label, len(xs), 100*q, sum/float64(max(len(xs), 1))))
		}
	}
	add("serve.submit_s", pick(interactive, func(j jobSample) float64 { return j.submit }), 0.5)
	add("serve.wait_s", pick(interactive, func(j jobSample) float64 { return j.wait }), 0.5, 0.9)
	add("serve.run_s", pick(interactive, func(j jobSample) float64 { return j.run }), 0.5)
	var status []float64
	for _, j := range all {
		status = append(status, j.status...)
	}
	add("serve.status_s", status, 0.5, 0.9)
	add("serve.result_s", pick(interactive, func(j jobSample) float64 { return j.result }), 0.5)
	byKind := map[string][]float64{}
	for _, j := range all {
		byKind[j.kind] = append(byKind[j.kind], j.total)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		add("serve.job_s."+k, byKind[k], 0.5)
	}
	return out, text
}

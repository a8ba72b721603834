package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
)

// referenceRun renders wanted artifacts of the tiny profile through the
// same report.Sweep path a daemon job uses, single-shot — the oracle
// every service-side output must match byte-for-byte.
func referenceRun(t *testing.T, jobs int, wanted map[string]bool) (tables, metrics []byte) {
	t.Helper()
	prof := core.ProfileTiny
	coll := obs.NewCollector()
	opts := report.Options{Jobs: jobs, Metrics: coll, Prepared: core.NewPreparedCache()}
	var out bytes.Buffer
	if err := report.Sweep(prof, &out, opts, wanted, nil); err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	if err := coll.Snapshot().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), m.Bytes()
}

// newTestScheduler builds a scheduler over a fresh store in dir.
func newTestScheduler(t *testing.T, dir string, cfg Config) (*Store, *Scheduler) {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	sched, err := NewScheduler(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return store, sched
}

// waitState polls a job until it reaches want (or any terminal state,
// which fails the test if it is not the wanted one).
func waitState(t *testing.T, s *Scheduler, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute) // generous: tiny cells crawl under -race
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeJobByteIdentity pins the service's core promise: a job's
// result.txt and metrics.json are byte-identical to the equivalent
// single-shot sweep, at a different worker count.
func TestServeJobByteIdentity(t *testing.T) {
	wanted := map[string]bool{"table3": true, "fig2": true, "table1": true}
	refTables, refMetrics := referenceRun(t, 2, wanted)

	store, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 3})
	defer sched.Close()
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"table3", "fig2", "table1"}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, sched, j.ID, StateDone)
	if st.DoneCells != st.TotalCells || st.Percent != 100 {
		t.Errorf("done job reports %d/%d cells (%.0f%%)", st.DoneCells, st.TotalCells, st.Percent)
	}
	gotTables, err := os.ReadFile(store.ResultPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTables, refTables) {
		t.Errorf("job result.txt differs from single-shot sweep:\n--- job ---\n%s\n--- reference ---\n%s", gotTables, refTables)
	}
	gotMetrics, err := os.ReadFile(store.MetricsPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMetrics, refMetrics) {
		t.Errorf("job metrics.json differs from single-shot sweep:\n%s\nvs\n%s", gotMetrics, refMetrics)
	}
}

// TestServeDrainAndCrashResume drives the full durability gauntlet:
// freeze a job mid-sweep, drain the daemon (job re-queues durably with
// its completed cells checkpointed), then simulate a kill -9 — job.json
// rewound to "running", a torn record appended to the checkpoint — and
// restart a new scheduler over the same directory at a different worker
// count. The resumed job must complete byte-identical to an
// uninterrupted run.
func TestServeDrainAndCrashResume(t *testing.T) {
	wanted := map[string]bool{"fig2": true, "table1": true}
	refTables, refMetrics := referenceRun(t, 2, wanted)
	dir := t.TempDir()

	store, sched := newTestScheduler(t, dir, Config{Jobs: 2})
	// Hold every worker once three cells have completed: the job cannot
	// finish until the drain's cancellation releases them.
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 2 {
			<-ctx.Done()
		}
	}
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"fig2", "table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if j.TotalCells < 4 {
		t.Fatalf("test needs a sweep of >= 4 cells to freeze mid-run, got %d", j.TotalCells)
	}
	for cells.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	ids := sched.Drain()
	if len(ids) != 1 || ids[0] != j.ID {
		t.Fatalf("Drain() = %v, want [%s]", ids, j.ID)
	}
	sched.Close()

	// The drained job must be durably re-queued with its cells on disk.
	jobs, damaged, err := store.Scan()
	if err != nil || len(damaged) > 0 {
		t.Fatalf("scan after drain: jobs err %v, damaged %v", err, damaged)
	}
	if len(jobs) != 1 || jobs[0].State != StateQueued {
		t.Fatalf("after drain job record is %+v, want state queued", jobs[0])
	}
	if jobs[0].CellsDone < 2 {
		t.Fatalf("after drain only %d cells durable, want >= 2", jobs[0].CellsDone)
	}
	if jobs[0].CellsDone >= jobs[0].TotalCells {
		t.Fatalf("drain test lost the race: all %d cells completed before the freeze", jobs[0].TotalCells)
	}

	// Simulate the harder failure: a kill -9 that died mid-transition
	// (record says running) and mid-append (torn final checkpoint line).
	crashed := jobs[0]
	crashed.State = StateRunning
	b, err := json.MarshalIndent(crashed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.JobDir(j.ID)+"/job.json", b, 0o666); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(store.CheckpointPath(j.ID), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn-cell","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart at a different worker count: the scheduler must truncate
	// the torn tail, re-queue, and complete byte-identically.
	store2, sched2 := newTestScheduler(t, dir, Config{Jobs: 4})
	defer sched2.Close()
	st := waitState(t, sched2, j.ID, StateDone)
	if st.Resumes != 1 {
		t.Errorf("resumed job records %d resumes, want 1", st.Resumes)
	}
	gotTables, err := os.ReadFile(store2.ResultPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTables, refTables) {
		t.Errorf("resumed result.txt differs from uninterrupted sweep:\n--- resumed ---\n%s\n--- reference ---\n%s", gotTables, refTables)
	}
	gotMetrics, err := os.ReadFile(store2.MetricsPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMetrics, refMetrics) {
		t.Errorf("resumed metrics.json differs from uninterrupted sweep:\n%s\nvs\n%s", gotMetrics, refMetrics)
	}
}

// TestServeTwoTenantsMonotonicProgress runs two clients' jobs
// concurrently under one carved budget and pins the fairness contract:
// both make monotonic progress and both finish every cell — neither
// tenant can starve the other.
func TestServeTwoTenantsMonotonicProgress(t *testing.T) {
	_, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 3})
	defer sched.Close()
	specs := []JobSpec{
		{Profile: "tiny", Artifacts: []string{"fig2", "table1"}, Client: "alice"},
		{Profile: "tiny", Artifacts: []string{"fig2", "ablations"}, Client: "bob"},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := sched.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	last := make([]int, len(ids))
	deadline := time.Now().Add(5 * time.Minute)
	for {
		doneAll := true
		for i, id := range ids {
			st, err := sched.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == StateFailed || st.State == StateCancelled {
				t.Fatalf("job %s (client %s) reached %s: %s", id, specs[i].Client, st.State, st.Error)
			}
			if st.DoneCells < last[i] {
				t.Fatalf("job %s progress went backwards: %d -> %d", id, last[i], st.DoneCells)
			}
			last[i] = st.DoneCells
			if st.State != StateDone {
				doneAll = false
			}
		}
		if doneAll {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenants stalled: progress %v", last)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, id := range ids {
		st, err := sched.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.DoneCells != st.TotalCells {
			t.Errorf("client %s job %s finished with %d/%d cells", specs[i].Client, id, st.DoneCells, st.TotalCells)
		}
	}
	// Both tenants idle: their carved pools must be retired so the next
	// client gets the whole budget back.
	sched.mu.Lock()
	tenants := len(sched.tenants)
	sched.mu.Unlock()
	if tenants != 0 {
		t.Errorf("%d tenant pools leaked after both jobs finished", tenants)
	}
}

// TestServeCancel cancels a frozen running job and requires a durable
// cancelled record.
func TestServeCancel(t *testing.T) {
	store, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	defer sched.Close()
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 1 {
			<-ctx.Done()
		}
	}
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"fig2"}})
	if err != nil {
		t.Fatal(err)
	}
	for cells.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, sched, j.ID, StateCancelled)
	if st.FinishedUnix == 0 {
		t.Error("cancelled job has no finish time")
	}
	jobs, _, err := store.Scan()
	if err != nil || len(jobs) != 1 || jobs[0].State != StateCancelled {
		t.Fatalf("durable record after cancel: %+v, err %v", jobs, err)
	}
	// Cancelling a terminal job reports its state instead of re-queueing.
	if err := sched.Cancel(j.ID); err == nil || !strings.Contains(err.Error(), "already cancelled") {
		t.Errorf("second cancel: %v, want 'already cancelled'", err)
	}
}

// TestServeCancelDurableBeforeVisible holds the cancelled record's
// write between "decided" and "on disk": during that window Status must
// still report the live state and the durable record must not be
// terminal, and from the first Cancel on every further Cancel must say
// "already cancelled" — before, during and after the write.
func TestServeCancelDurableBeforeVisible(t *testing.T) {
	store, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	defer sched.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	store.putFn = func(path string, data []byte) error {
		if bytes.Contains(data, []byte(`"state": "cancelled"`)) {
			close(entered)
			<-release
		}
		return atomicWrite(path, data)
	}
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 1 {
			<-ctx.Done()
		}
	}
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"fig2"}})
	if err != nil {
		t.Fatal(err)
	}
	for cells.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	againCancel := func(when string) {
		t.Helper()
		if err := sched.Cancel(j.ID); err == nil || !strings.Contains(err.Error(), "already cancelled") {
			t.Errorf("cancel %s: %v, want 'already cancelled'", when, err)
		}
	}
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	againCancel("while the run unwinds")
	<-entered
	st, err := sched.Status(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.terminal() {
		t.Errorf("Status reports %s while the record is still being written", st.State)
	}
	jobs, _, err := store.Scan()
	if err != nil || len(jobs) != 1 || jobs[0].State.terminal() {
		t.Fatalf("durable record before the write completed: %+v, err %v", jobs, err)
	}
	againCancel("during the write")
	close(release)
	waitState(t, sched, j.ID, StateCancelled)
	jobs, _, err = store.Scan()
	if err != nil || len(jobs) != 1 || jobs[0].State != StateCancelled {
		t.Fatalf("durable record after Status reported cancelled: %+v, err %v", jobs, err)
	}
	againCancel("after the write")
}

// TestServeDrainKeepsTerminalRecord races Drain against a run that is
// settling: the cancelled record's write is held on its way to disk
// while Drain lists the (still live) run, and any draining write is
// held until the cancelled one has landed — the order that used to
// leave "draining" on disk over a terminal record, so the job re-ran
// after a restart. The durable record must stay cancelled, and Drain
// must not report the job as resumable.
func TestServeDrainKeepsTerminalRecord(t *testing.T) {
	store, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	defer sched.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	terminalWritten := make(chan struct{})
	store.putFn = func(path string, data []byte) error {
		switch {
		case bytes.Contains(data, []byte(`"state": "cancelled"`)):
			close(entered)
			<-release
			defer close(terminalWritten)
		case bytes.Contains(data, []byte(`"state": "draining"`)):
			<-terminalWritten
		}
		return atomicWrite(path, data)
	}
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 1 {
			<-ctx.Done()
		}
	}
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"fig2"}})
	if err != nil {
		t.Fatal(err)
	}
	for cells.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := sched.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-entered
	drained := make(chan []string)
	go func() { drained <- sched.Drain() }()
	// Drain lists the live runs in the same critical section that sets
	// draining, so once the flag is up the settling run is on its list.
	for {
		sched.mu.Lock()
		listed := sched.draining
		sched.mu.Unlock()
		if listed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if ids := <-drained; len(ids) != 0 {
		t.Errorf("Drain reports %v resumable; the only job had already settled", ids)
	}
	jobs, _, err := store.Scan()
	if err != nil || len(jobs) != 1 {
		t.Fatalf("scan after Drain: %d records, err %v", len(jobs), err)
	}
	if jobs[0].State != StateCancelled {
		t.Errorf("durable record after Drain is %s, want cancelled", jobs[0].State)
	}
}

// TestServeDeadline fails a job that exceeds its wall-clock budget,
// without retrying the timeout.
func TestServeDeadline(t *testing.T) {
	_, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2, RetryAttempts: 3})
	defer sched.Close()
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 1 {
			<-ctx.Done() // freeze until the deadline fires
		}
	}
	j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"fig2"}, DeadlineSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, sched, j.ID, StateFailed)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("deadline failure reads %q, want a deadline message", st.Error)
	}
}

// TestServeSubmitValidation rejects malformed specs without touching
// the store.
func TestServeSubmitValidation(t *testing.T) {
	store, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 1})
	defer sched.Close()
	for _, spec := range []JobSpec{
		{Profile: "no-such-profile"},
		{Profile: "tiny", Artifacts: []string{"fig99"}},
		{Profile: "tiny", Modes: "bogus"},
		{Profile: "tiny", Artifacts: []string{" ", ""}},
		{Profile: "tiny", ChaosRate: 1.5},
		{Profile: "tiny", ChaosRate: -0.1},
		{Profile: "tiny", DeadlineSeconds: -1},
	} {
		if _, err := sched.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", spec)
		}
	}
	jobs, _, err := store.Scan()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("rejected specs left %d job records (err %v)", len(jobs), err)
	}
}

// TestServeHTTPAPI drives the daemon's HTTP surface end to end through
// httptest: submit, poll, fetch result and metrics, list, cancel
// semantics, the observability routes, and drain-time admission.
func TestServeHTTPAPI(t *testing.T) {
	_, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	api := NewAPI(sched, obs.HTTPOptions{}, obs.NewLogger(io.Discard, "test", true))
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	if resp := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"profile":"no-such"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown profile: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/jobs/j9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	// Path segments outside the job-ID grammar never reach the store.
	for _, id := range []string{"..%2F..", "j+1", "x"} {
		if resp, b := get("/jobs/" + id); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /jobs/%s: %d %s, want 404", id, resp.StatusCode, b)
		}
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("DELETE /jobs/%s: %d, want 404", id, resp.StatusCode)
		}
	}

	resp := post(`{"profile":"tiny","artifacts":["fig2"],"client":"curl"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.ID == "" || j.TotalCells == 0 {
		t.Fatalf("submitted job record incomplete: %+v", j)
	}

	waitState(t, sched, j.ID, StateDone)
	if resp, b := get("/jobs/" + j.ID); resp.StatusCode != http.StatusOK {
		t.Errorf("status: %d %s", resp.StatusCode, b)
	} else {
		var st Status
		if err := json.Unmarshal(b, &st); err != nil || st.State != StateDone || st.Percent != 100 {
			t.Errorf("status body %s (err %v), want done at 100%%", b, err)
		}
	}
	if resp, b := get(fmt.Sprintf("/jobs/%s/result", j.ID)); resp.StatusCode != http.StatusOK || len(b) == 0 {
		t.Errorf("result: %d with %d bytes", resp.StatusCode, len(b))
	}
	if resp, b := get(fmt.Sprintf("/jobs/%s/metrics", j.ID)); resp.StatusCode != http.StatusOK {
		t.Errorf("metrics: %d", resp.StatusCode)
	} else if !json.Valid(b) {
		t.Errorf("metrics body is not JSON: %s", b)
	}
	if resp, b := get("/jobs"); resp.StatusCode != http.StatusOK {
		t.Errorf("list: %d", resp.StatusCode)
	} else {
		var sts []Status
		if err := json.Unmarshal(b, &sts); err != nil || len(sts) != 1 {
			t.Errorf("list body %s (err %v), want one job", b, err)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+j.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cancel of done job: %v %d, want 400", err, resp.StatusCode)
	}
	if resp, _ := get("/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics: %d", resp.StatusCode)
	}
	if resp, _ := get("/"); resp.StatusCode != http.StatusOK {
		t.Errorf("index: %d", resp.StatusCode)
	}

	sched.Drain()
	sched.Close()
	if resp := post(`{"profile":"tiny"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestServeResultBeforeDone returns 409 with a progress line while the
// job is still running.
func TestServeResultBeforeDone(t *testing.T) {
	_, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	var cells atomic.Int32
	sched.testCellSink = func(_ string, ctx context.Context) {
		if cells.Add(1) > 1 {
			<-ctx.Done()
		}
	}
	api := NewAPI(sched, obs.HTTPOptions{}, obs.NewLogger(io.Discard, "test", true))
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(`{"profile":"tiny","artifacts":["fig2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	for cells.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	rr, err := http.Get(srv.URL + "/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusConflict || !strings.Contains(string(b), "running") {
		t.Errorf("result of running job: %d %s, want 409 mentioning running", rr.StatusCode, b)
	}
	sched.Drain()
	sched.Close()
}

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
	"github.com/dvm-sim/dvm/internal/runner"
)

// ErrDraining rejects submissions while the daemon is shutting down.
var ErrDraining = errors.New("serve: daemon is draining; resubmit after restart")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("serve: no such job")

// Config tunes the scheduler. The zero value is usable: one worker per
// CPU, cell watchdog off, fsync-per-cell durability.
type Config struct {
	// Jobs bounds the daemon's total concurrent experiment cells, the
	// service analog of dvmrepro -j (0: one per CPU). All jobs share
	// one runner.Budget sized from it; per-client sub-pools are carved
	// out of that budget, never added to it.
	Jobs int
	// CellTimeout puts every cell under a watchdog (0: none). A wedged
	// simulation fails its job instead of hanging the daemon forever.
	CellTimeout time.Duration
	// SyncEvery is the checkpoint fsync cadence in cells (0: every
	// cell — the service tier defaults to maximum durability; raise it
	// for sweeps of thousands of cheap cells).
	SyncEvery int
	// Metrics, when non-nil, receives the daemon's serve.* counters
	// (jobs submitted/done/failed/cancelled/resumed).
	Metrics *obs.Collector
	// Logf, when non-nil, receives daemon status lines.
	Logf func(format string, args ...interface{})
}

// Scheduler owns the job lifecycle: admission, the persistent worker
// fleet, fair-share token carving, durable state transitions, and
// drain. One Scheduler runs per daemon process.
type Scheduler struct {
	store    *Store
	cfg      Config
	budget   *runner.Budget
	tokens   int
	prepared *core.PreparedCache

	mu       sync.Mutex
	jobs     map[string]*jobRun
	tenants  map[string]*tenant
	draining bool
	wg       sync.WaitGroup

	// testCellSink, when non-nil (tests only), observes every completed
	// cell; it may block on ctx to hold workers at a cell boundary, which
	// is how the drain and crash-resume tests freeze a job mid-sweep.
	testCellSink func(id string, ctx context.Context)
}

// tenant is one client's scheduling state: a sub-pool carved from the
// global budget, capped at the client's current fair share.
type tenant struct {
	pool   *runner.Budget
	active int
}

// jobRun is one live (non-terminal) job's in-memory state.
type jobRun struct {
	mu     sync.Mutex
	job    *Job
	ck     *core.Checkpoint
	board  *runner.ProgressBoard
	cancel context.CancelFunc
	// cancelled marks a DELETE (vs a drain) so run() can tell the two
	// context cancellations apart.
	cancelled bool
	done      chan struct{}
	// wmu serializes the run's record writes (see write); settled,
	// guarded by wmu, marks that the run's last record is on disk.
	wmu     sync.Mutex
	settled bool
}

// NewScheduler builds the scheduler over a store and resumes every
// incomplete job the scan finds: jobs interrupted mid-run (state
// running or draining — a crash or a previous drain) re-queue with
// their checkpoints intact, so the daemon picks up within one cell of
// where it died.
func NewScheduler(store *Store, cfg Config) (*Scheduler, error) {
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 1
	}
	b := runner.BudgetFor(cfg.Jobs)
	s := &Scheduler{
		store:    store,
		cfg:      cfg,
		budget:   b,
		tokens:   b.Free(),
		prepared: core.NewPreparedCache(),
		jobs:     map[string]*jobRun{},
		tenants:  map[string]*tenant{},
	}
	jobs, damaged, err := store.Scan()
	if err != nil {
		return nil, err
	}
	for _, d := range damaged {
		s.logf("job dir %s is damaged (not a job ID, or missing or corrupt job.json); skipping", d)
	}
	for _, j := range jobs {
		if j.State.terminal() {
			continue
		}
		if j.State == StateRunning || j.State == StateDraining {
			j.Resumes++
			s.cfg.Metrics.Inc("serve.jobs.resumed", 1)
			s.logf("job %s interrupted in state %s; resuming (%d/%d cells durable)", j.ID, j.State, j.CellsDone, j.TotalCells)
		}
		j.State = StateQueued
		if err := store.Put(j); err != nil {
			return nil, err
		}
		s.start(j)
	}
	return s, nil
}

func (s *Scheduler) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close releases the scheduler's shared resources after all jobs have
// stopped (callers Drain first).
func (s *Scheduler) Close() {
	s.wg.Wait()
	s.prepared.Close()
}

// Submit validates, persists and starts a new job. The job is durable
// (job.json on disk) before its ID is returned, so an accepted
// submission survives an immediate crash.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var opts report.Options
	prof, wanted, err := spec.sweep().Resolve(&opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.mu.Unlock()
	j := &Job{
		ID:          s.store.NextID(),
		Spec:        spec,
		State:       StateQueued,
		TotalCells:  report.CellCount(prof, wanted),
		CreatedUnix: time.Now().Unix(),
	}
	if err := s.store.Put(j); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		// Lost the race with Drain: withdraw the record so the client's
		// error and the store agree that nothing was admitted.
		s.mu.Unlock()
		os.RemoveAll(s.store.JobDir(j.ID))
		return nil, ErrDraining
	}
	s.cfg.Metrics.Inc("serve.jobs.submitted", 1)
	// Snapshot the admission-time record before the run goroutine exists:
	// once startLocked fires, j's state fields belong to the run (guarded
	// by its lock), and handing the live pointer back would let the HTTP
	// layer marshal it unsynchronized.
	out := *j
	s.startLocked(j)
	s.mu.Unlock()
	return &out, nil
}

// start registers and launches a job's runner goroutine.
func (s *Scheduler) start(j *Job) {
	s.mu.Lock()
	s.startLocked(j)
	s.mu.Unlock()
}

func (s *Scheduler) startLocked(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &jobRun{job: j, board: &runner.ProgressBoard{}, cancel: cancel, done: make(chan struct{})}
	s.jobs[j.ID] = r
	s.wg.Add(1)
	go s.run(ctx, r)
}

// acquireTenant returns (creating if needed) the client's sub-pool and
// recomputes every active tenant's fair share.
func (s *Scheduler) acquireTenant(client string) *runner.Budget {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[client]
	if t == nil {
		t = &tenant{pool: s.budget.Carve(0)}
		s.tenants[client] = t
	}
	t.active++
	s.recomputeSharesLocked()
	return t.pool
}

// releaseTenant drops one active job from the client and recomputes
// shares; an idle tenant's pool is retired.
func (s *Scheduler) releaseTenant(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[client]
	if t == nil {
		return
	}
	if t.active--; t.active <= 0 {
		t.pool.SetCap(0)
		delete(s.tenants, client)
	}
	s.recomputeSharesLocked()
}

// recomputeSharesLocked splits the global token count evenly across
// active tenants (remainder to the lexicographically first clients, so
// the split is deterministic). A tenant over its shrunken cap simply
// stops acquiring until enough of its tokens come home — SetCap never
// revokes in-flight work. With more tenants than tokens some shares
// are zero: those jobs still progress, because a sweep's calling
// goroutine is always a worker; tokens only add extra ones.
func (s *Scheduler) recomputeSharesLocked() {
	if len(s.tenants) == 0 {
		return
	}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	share, extra := s.tokens/len(names), s.tokens%len(names)
	for i, name := range names {
		cap := share
		if i < extra {
			cap++
		}
		s.tenants[name].pool.SetCap(cap)
	}
}

// run executes one job to a terminal state (or to queued, when a drain
// interrupts it). Every transition is persisted before it matters.
func (s *Scheduler) run(ctx context.Context, r *jobRun) {
	defer s.wg.Done()
	defer close(r.done)
	j := r.job
	sweep := j.Spec.sweep()
	var opts report.Options
	prof, wanted, err := sweep.Resolve(&opts)
	if err != nil { // a restart with a now-invalid spec (registry drift)
		s.finish(r, StateFailed, "", err)
		return
	}
	ck, err := core.OpenCheckpoint(s.store.CheckpointPath(j.ID), sweep.Key(), true)
	if err != nil {
		s.finish(r, StateFailed, "", fmt.Errorf("serve: job %s checkpoint: %w", j.ID, err))
		return
	}
	ck.SetSyncEvery(s.cfg.SyncEvery)
	r.mu.Lock()
	r.ck = ck
	r.mu.Unlock()
	defer ck.Close()

	if _, err := s.write(r, false, func(j *Job) { j.State = StateRunning }); err != nil {
		s.finish(r, StateFailed, "", err)
		return
	}
	if n := ck.Len(); n > 0 {
		s.logf("job %s: resumed %d completed cells from checkpoint", j.ID, n)
	}

	if j.Spec.DeadlineSeconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.DeadlineSeconds)*time.Second)
		defer cancel()
	}
	pool := s.acquireTenant(j.Spec.Client)
	defer s.releaseTenant(j.Spec.Client)

	coll := &obs.Collector{}
	opts.Jobs = s.cfg.Jobs
	opts.Workers = pool
	opts.Ctx = ctx
	opts.Metrics = coll
	opts.Prepared = s.prepared
	opts.Checkpoint = ck
	opts.Board = r.board
	opts.CellTimeout = s.cfg.CellTimeout
	if s.testCellSink != nil {
		opts.Progress = func(string, ...interface{}) { s.testCellSink(j.ID, ctx) }
	}

	var tables bytes.Buffer
	err = report.Sweep(prof, &tables, opts, wanted, func(key string, render func() error) error {
		s.logf("job %s: == %s (profile %s)", j.ID, key, prof.Name)
		return render()
	})
	if err != nil {
		if ctx.Err() != nil {
			s.interrupted(r, ctx, err)
			return
		}
		s.finish(r, StateFailed, report.ArtifactKeyOf(err), err)
		return
	}
	var metrics bytes.Buffer
	if err := coll.Snapshot().WriteJSON(&metrics); err != nil {
		s.finish(r, StateFailed, "", err)
		return
	}
	// Results land on disk before the done transition: State == done
	// always implies complete result.txt and metrics.json.
	if err := s.store.WriteResult(j.ID, tables.Bytes(), metrics.Bytes()); err != nil {
		s.finish(r, StateFailed, "", err)
		return
	}
	s.finish(r, StateDone, "", nil)
}

// interrupted handles a context-cancelled sweep: a DELETE becomes
// cancelled, a deadline becomes failed, a drain flushes the checkpoint
// and re-queues the job as the daemon's durable resume state.
func (s *Scheduler) interrupted(r *jobRun, ctx context.Context, err error) {
	r.mu.Lock()
	cancelled := r.cancelled
	r.mu.Unlock()
	switch {
	case cancelled:
		s.finish(r, StateCancelled, "", nil)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.finish(r, StateFailed, report.ArtifactKeyOf(err),
			fmt.Errorf("deadline of %ds exceeded: %w", r.job.Spec.DeadlineSeconds, ctx.Err()))
	default: // drain
		if serr := r.ck.Sync(); serr != nil {
			s.logf("job %s: drain checkpoint sync: %v", r.job.ID, serr)
		}
		if _, perr := s.write(r, true, func(j *Job) { j.State = StateQueued }); perr != nil {
			s.logf("job %s: drain persist: %v", r.job.ID, perr)
		}
		s.logf("job %s: drained with %d/%d cells durable; will resume on restart",
			r.job.ID, r.ck.Len(), r.job.TotalCells)
	}
}

// finish drives a job to a terminal state and persists it.
func (s *Scheduler) finish(r *jobRun, st State, artifact string, err error) {
	_, perr := s.write(r, true, func(j *Job) {
		j.State = st
		j.FinishedUnix = time.Now().Unix()
		j.Artifact = artifact
		if err != nil {
			j.Error = err.Error()
		}
	})
	if perr != nil {
		s.logf("job %s: persisting %s: %v", r.job.ID, st, perr)
	}
	switch st {
	case StateDone:
		s.cfg.Metrics.Inc("serve.jobs.done", 1)
		s.logf("job %s: done (%d cells)", r.job.ID, r.job.CellsDone)
	case StateFailed:
		s.cfg.Metrics.Inc("serve.jobs.failed", 1)
		s.logf("job %s: failed: %v", r.job.ID, err)
	case StateCancelled:
		s.cfg.Metrics.Inc("serve.jobs.cancelled", 1)
		s.logf("job %s: cancelled", r.job.ID)
	}
}

// write persists the record update produces (with the durable cell
// count refreshed) and only then publishes it, so Status never reports
// a state ahead of disk. A settling write (the run's last: terminal, or
// re-queued by a drain) also unregisters the run, under s.mu with the
// publish, so once Status reports the final state Cancel no longer
// finds a live run and answers from the durable record. wmu serializes
// a run's writes, and any write after the settling one is dropped: a
// concurrent Drain can never overwrite a terminal record with draining.
// It reports whether the record was written.
func (s *Scheduler) write(r *jobRun, settle bool, update func(*Job)) (bool, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if r.settled {
		return false, nil
	}
	r.mu.Lock()
	j := *r.job
	j.CellsDone = r.ck.Len()
	r.mu.Unlock()
	update(&j)
	err := s.store.Put(&j)
	if settle {
		r.settled = true
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.jobs, j.ID)
	}
	// Publish only what a transition changes: ID, Spec and TotalCells
	// are fixed at admission, and the run reads them without r.mu.
	r.mu.Lock()
	r.job.State, r.job.Error, r.job.Artifact = j.State, j.Error, j.Artifact
	r.job.CellsDone, r.job.FinishedUnix = j.CellsDone, j.FinishedUnix
	r.mu.Unlock()
	return true, err
}

// Cancel aborts a queued or running job (DELETE /jobs/{id}). Terminal
// jobs return an error; the cancellation is asynchronous — workers
// finish (and checkpoint) their in-flight cells first.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	r := s.jobs[id]
	s.mu.Unlock()
	if r == nil {
		j, err := s.store.Get(id)
		if err != nil {
			return err
		}
		return fmt.Errorf("serve: job %s already %s", id, j.State)
	}
	r.mu.Lock()
	again := r.cancelled
	r.cancelled = true
	r.mu.Unlock()
	if again {
		return fmt.Errorf("serve: job %s already cancelled", id)
	}
	r.cancel()
	return nil
}

// Drain stops admission and gracefully interrupts every running job:
// workers finish their in-flight cells, checkpoints are fsynced, and
// each job is re-queued durably so the next daemon start resumes it.
// It returns the IDs of the jobs left resumable; a run that settled
// after the listing below keeps its record and is not among them.
func (s *Scheduler) Drain() []string {
	s.mu.Lock()
	s.draining = true
	live := make([]*jobRun, 0, len(s.jobs))
	for _, r := range s.jobs {
		live = append(live, r)
	}
	s.mu.Unlock()
	var ids []string
	for _, r := range live {
		wrote, err := s.write(r, false, func(j *Job) { j.State = StateDraining })
		if err != nil {
			s.logf("job %s: persisting draining: %v", r.job.ID, err)
		}
		if wrote {
			ids = append(ids, r.job.ID)
		}
		r.cancel()
	}
	s.wg.Wait()
	sort.Strings(ids)
	return ids
}

// Status reports one job: the durable record plus live progress. A run
// leaves s.jobs only after its last record is on disk (write), so for a
// job that is not live the record, one file read, is current.
func (s *Scheduler) Status(id string) (Status, error) {
	s.mu.Lock()
	r := s.jobs[id]
	s.mu.Unlock()
	if r != nil {
		return r.status(), nil
	}
	j, err := s.store.Get(id)
	if err != nil {
		return Status{}, err
	}
	return recordStatus(j), nil
}

// status reports a live run: its published record, the checkpoint's
// durable cell count and the progress board's ETA.
func (r *jobRun) status() Status {
	r.mu.Lock()
	j, done := *r.job, 0
	if r.ck != nil {
		done = r.ck.Len()
	}
	r.mu.Unlock()
	var eta float64
	if ps, ok := r.board.Probe()(); ok {
		eta = ps.EtaSeconds
	}
	return newStatus(j, done, eta)
}

// recordStatus reports a job that is not live from its durable record.
func recordStatus(j *Job) Status { return newStatus(*j, j.CellsDone, 0) }

// Progress aggregates live jobs for the daemon's /progress endpoint:
// durable cells done and totals summed across every non-terminal job,
// the longest per-job ETA standing in for the fleet's. ok is false
// when the daemon is idle.
func (s *Scheduler) Progress() (obs.ProgressState, bool) {
	s.mu.Lock()
	runs := make([]*jobRun, 0, len(s.jobs))
	for _, r := range s.jobs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	if len(runs) == 0 {
		return obs.ProgressState{}, false
	}
	var out obs.ProgressState
	for _, r := range runs {
		r.mu.Lock()
		out.Total += r.job.TotalCells
		if r.ck != nil {
			out.Done += r.ck.Len()
		}
		r.mu.Unlock()
		if ps, ok := r.board.Probe()(); ok {
			if ps.EtaSeconds > out.EtaSeconds {
				out.EtaSeconds = ps.EtaSeconds
			}
			if ps.ElapsedSeconds > out.ElapsedSeconds {
				out.ElapsedSeconds = ps.ElapsedSeconds
			}
		}
	}
	if out.Total > 0 {
		out.Percent = 100 * float64(out.Done) / float64(out.Total)
	}
	return out, true
}

// List reports every job in the store (durable records; live jobs get
// their current cell counts). It reads the store once. The live runs
// are snapshotted before the scan: a run that settles after the
// snapshot still reports its final published state, and one that
// settled before it has its final record on disk by the time the scan
// reads it.
func (s *Scheduler) List() ([]Status, error) {
	s.mu.Lock()
	live := make(map[string]*jobRun, len(s.jobs))
	for id, r := range s.jobs {
		live[id] = r
	}
	s.mu.Unlock()
	jobs, _, err := s.store.Scan()
	if err != nil {
		return nil, err
	}
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		if r := live[j.ID]; r != nil {
			out = append(out, r.status())
		} else {
			out = append(out, recordStatus(j))
		}
	}
	return out, nil
}

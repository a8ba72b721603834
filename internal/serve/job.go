// Package serve is the simulation-as-a-service tier: a long-running
// daemon (cmd/dvmserved) that accepts sweep jobs over HTTP/JSON, fans
// their experiment cells out across a persistent worker fleet under one
// shared runner.Budget, and persists every completed cell through the
// core.Checkpoint JSONL format so a kill -9 mid-sweep loses at most the
// in-flight cells. On restart the daemon rescans its job directory,
// truncates torn checkpoint tails, and resumes every incomplete job to
// byte-identical tables and metrics — the same contract dvmrepro's
// -checkpoint/-resume flags give a single run, promoted to a service.
package serve

import (
	"fmt"
	"time"

	"github.com/dvm-sim/dvm/internal/report"
)

// State is a job's position in its lifecycle. Transitions:
//
//	queued -> running -> done
//	                  -> failed
//	running -> draining -> queued   (graceful daemon drain: resumable)
//	queued|running -> cancelled     (DELETE /jobs/{id})
//
// Every transition is persisted to the job's job.json via atomic
// temp+rename before it is visible over HTTP, so a crash between
// transitions re-observes the last durable state on restart. A job
// found in running or draining at startup was interrupted — its
// checkpoint holds every completed cell — and is re-queued.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDraining  State = "draining"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state has no further transitions.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the client-supplied job description (the POST /jobs body).
// Its sweep fields are a report.Spec — the description dvmrepro builds
// from its flags — so a job's outputs are byte-identical to the
// equivalent single-shot run and its checkpoint namespace is the same.
type JobSpec struct {
	// Profile names the experiment profile (tiny, small, ...).
	Profile string `json:"profile"`
	// Artifacts optionally restricts the sweep to a subset of
	// report.ArtifactKeys; empty runs everything in paper order.
	Artifacts []string `json:"artifacts,omitempty"`
	// Modes selects the fig8/fig9 mode matrix: "" or "paper" (the seven
	// paper columns) or "extended" (paper + registered extras).
	Modes string `json:"modes,omitempty"`
	// ChaosRate, when > 0, arms deterministic fault injection at this
	// per-site probability (outputs are then not paper artifacts).
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	// ChaosSeed fixes the fault schedule (0 means 1, as dvmrepro).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Client names the submitting tenant for fair-share scheduling;
	// empty is the "default" tenant. Tokens of the daemon's global
	// worker budget are carved per active tenant, so one client's
	// hundred-job backlog cannot starve another's single job.
	Client string `json:"client,omitempty"`
	// DeadlineSeconds, when > 0, fails the job if it runs longer than
	// this wall-clock budget (checkpointed cells survive; resubmitting
	// an identical job resumes them).
	DeadlineSeconds int `json:"deadline_seconds,omitempty"`
}

// Validate checks and normalizes the service fields (client, deadline);
// the sweep fields are validated by report.Spec.Resolve.
func (s *JobSpec) Validate() error {
	if s.Client == "" {
		s.Client = "default"
	}
	if s.DeadlineSeconds < 0 {
		return fmt.Errorf("serve: negative deadline_seconds %d", s.DeadlineSeconds)
	}
	return nil
}

// sweep is the job's sweep description.
func (s *JobSpec) sweep() report.Spec {
	return report.Spec{Profile: s.Profile, Artifacts: s.Artifacts, Modes: s.Modes, ChaosRate: s.ChaosRate, ChaosSeed: s.ChaosSeed}
}

// Job is the durable job record (job.json) plus the live fields the
// status endpoint reports.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// State is the last durable lifecycle state.
	State State `json:"state"`
	// Error describes a failed job (State == failed).
	Error string `json:"error,omitempty"`
	// Artifact names the artifact that failed (when known).
	Artifact string `json:"artifact,omitempty"`
	// TotalCells is the sweep's cell count (the progress denominator),
	// fixed at admission from the spec.
	TotalCells int `json:"total_cells"`
	// CellsDone is the durably completed (checkpointed) cell count as
	// of the last persisted transition; live jobs report the
	// checkpoint's current length instead.
	CellsDone int `json:"cells_done,omitempty"`
	// Resumes counts how many times the job was resumed after an
	// interruption (daemon restart or drain).
	Resumes int `json:"resumes,omitempty"`
	// CreatedUnix and FinishedUnix bound the job's wall-clock life.
	CreatedUnix  int64 `json:"created_unix"`
	FinishedUnix int64 `json:"finished_unix,omitempty"`
}

// Status is the GET /jobs/{id} response: the durable record plus live
// progress in dvmrepro's "[done/total pct eta]" vocabulary.
type Status struct {
	Job
	// DoneCells counts durably completed (checkpointed) cells.
	DoneCells int     `json:"done_cells"`
	Percent   float64 `json:"percent"`
	// EtaSeconds estimates time to completion from the live sliding
	// window (0 when idle or unknown).
	EtaSeconds float64 `json:"eta_seconds,omitempty"`
}

// newStatus builds a Status with its percentage.
func newStatus(j Job, done int, eta float64) Status {
	st := Status{Job: j, DoneCells: done, EtaSeconds: eta}
	if j.TotalCells > 0 {
		st.Percent = 100 * float64(done) / float64(j.TotalCells)
	}
	return st
}

// progressLine renders the status in the CLI's progress vocabulary.
func (st Status) progressLine() string {
	eta := "-"
	if st.EtaSeconds > 0 {
		eta = (time.Duration(st.EtaSeconds * float64(time.Second))).Round(time.Second).String()
	}
	return fmt.Sprintf("[%d/%d %3.0f%% eta %s]", st.DoneCells, st.TotalCells, st.Percent, eta)
}

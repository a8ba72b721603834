package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"github.com/dvm-sim/dvm/internal/durable"
)

// Store is the durable job store: one directory per job under the
// daemon's -dir, holding
//
//	<id>/job.json      the Job record (every write is temp+rename, so
//	                   the file is always a complete JSON document)
//	<id>/cells.ckpt    the core.Checkpoint of completed cells (torn
//	                   FINAL lines are truncated on resume; interior
//	                   corruption fails the job loudly)
//	<id>/result.txt    the rendered tables (written once, atomically,
//	                   when the job completes)
//	<id>/metrics.json  the deterministic metrics snapshot (same)
//
// The checkpoint is the durability workhorse: job.json only changes on
// state transitions, while every completed cell appends (and fsyncs on
// the store's cadence) to cells.ckpt — so a kill -9 mid-sweep loses at
// most the in-flight cells, never a completed one.
type Store struct {
	dir string
	mu  sync.Mutex
	seq int
	// putFn writes a job record. It defaults to atomicWrite and exists
	// as a seam so durability tests can hold a transition exactly
	// between "in memory" and "on disk".
	putFn func(path string, data []byte) error
}

// NewStore opens (creating if needed) the job directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	s := &Store{dir: dir, putFn: atomicWrite}
	jobs, _, err := s.Scan()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if n, ok := idSeq(j.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// NextID allocates a fresh job ID (j0001, j0002, ... — monotonic
// across restarts because NewStore seeds the sequence from the scan).
func (s *Store) NextID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("j%04d", s.seq)
}

// idSeq parses a job ID: "j" followed by one or more ASCII digits,
// nothing else (no sign, no separator). It is the only gate between an
// HTTP path segment and a file path, so everything else is rejected
// before the disk is touched.
func idSeq(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(id[1:])
	return n, err == nil
}

// JobDir returns the directory of one job.
func (s *Store) JobDir(id string) string { return filepath.Join(s.dir, id) }

// CheckpointPath returns the job's cell checkpoint file.
func (s *Store) CheckpointPath(id string) string { return filepath.Join(s.dir, id, "cells.ckpt") }

// ResultPath returns the job's rendered-tables file.
func (s *Store) ResultPath(id string) string { return filepath.Join(s.dir, id, "result.txt") }

// MetricsPath returns the job's metrics snapshot file.
func (s *Store) MetricsPath(id string) string { return filepath.Join(s.dir, id, "metrics.json") }

// Put persists a job record durably: marshal to <dir>/job.json.tmp,
// fsync, rename over job.json, fsync the directory. A crash at any
// point leaves either the old record or the new one — never a torn
// file — which is what lets every state transition be trusted at scan
// time.
func (s *Store) Put(j *Job) error {
	dir := s.JobDir(j.ID)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return s.putFn(filepath.Join(dir, "job.json"), append(b, '\n'))
}

// WriteResult persists the job's final outputs (tables and metrics)
// atomically, in that order, before the caller marks the job done —
// so State == done implies both artifacts are complete on disk.
func (s *Store) WriteResult(id string, tables, metrics []byte) error {
	if err := atomicWrite(s.ResultPath(id), tables); err != nil {
		return err
	}
	return atomicWrite(s.MetricsPath(id), metrics)
}

// atomicWrite replaces path with data through durable.WriteFile (mode
// 0600, as the records have always been written).
func atomicWrite(path string, data []byte) error {
	return durable.WriteFile(path, 0o600, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// Get reads one job's durable record, <id>/job.json, and nothing else.
// It applies Scan's checks: an ID outside the job-ID grammar, a missing
// or unreadable file, bad JSON or a record naming another ID are all
// ErrNotFound — exactly the directories Scan reports as damaged.
func (s *Store) Get(id string) (*Job, error) {
	if _, ok := idSeq(id); !ok {
		return nil, ErrNotFound
	}
	b, err := os.ReadFile(filepath.Join(s.dir, id, "job.json"))
	if err != nil {
		return nil, ErrNotFound
	}
	var j Job
	if err := json.Unmarshal(b, &j); err != nil || j.ID != id {
		return nil, ErrNotFound
	}
	return &j, nil
}

// Scan loads every job record in the store, sorted by ID. Directories
// that Get would not answer for — a name outside the job-ID grammar, or
// a job.json that is missing or unreadable (a crash before the very
// first Put, or operator damage) — are reported in damaged rather than
// silently dropped; leftover *.tmp files are ignored. Scan reads the
// whole store, so it runs only at startup and once per List.
func (s *Store) Scan() (jobs []*Job, damaged []string, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		j, gerr := s.Get(e.Name())
		if gerr != nil {
			damaged = append(damaged, e.Name())
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, damaged, nil
}

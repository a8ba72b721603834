package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreGetMatchesScan checks that Get answers exactly for the
// records Scan loads, with the same contents, and that every directory
// Scan reports as damaged, and every ID outside the store or the job-ID
// grammar, is ErrNotFound.
func TestStoreGetMatchesScan(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range []State{StateDone, StateQueued, StateFailed} {
		j := &Job{
			ID:          store.NextID(),
			Spec:        JobSpec{Profile: "tiny", Artifacts: []string{"table1"}, Client: "c"},
			State:       st,
			TotalCells:  4,
			CellsDone:   i,
			CreatedUnix: int64(100 + i),
		}
		if st == StateFailed {
			j.Error, j.Artifact = "boom", "table1"
		}
		if err := store.Put(j); err != nil {
			t.Fatal(err)
		}
	}
	// A leftover temp file next to a good record changes nothing.
	if err := os.WriteFile(filepath.Join(dir, "j0001", "job.json.tmp123"), []byte("{"), 0o666); err != nil {
		t.Fatal(err)
	}
	damage := map[string]string{
		"j0004": "",                          // no job.json (crash before the first Put)
		"j0005": "{not json",                 // corrupt
		"j0006": `{"id": "j0002"}`,           // names another job
		"j0007": "tmp",                       // only a leftover temp file
		"x":     `{"id": "x"}`,               // outside the ID grammar
		"j+8":   `{"id": "j+8"}`,             // accepted by strconv.Atoi, not by the grammar
		"j-9":   `{"id": "j-9", "state": 1}`, // same
	}
	for name, body := range damage {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o777); err != nil {
			t.Fatal(err)
		}
		switch body {
		case "":
		case "tmp":
			err = os.WriteFile(filepath.Join(d, "job.json.tmp456"), []byte(`{"id": "j0007"}`), 0o666)
		default:
			err = os.WriteFile(filepath.Join(d, "job.json"), []byte(body), 0o666)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	jobs, damaged, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("Scan loaded %d records, want 3", len(jobs))
	}
	for _, want := range jobs {
		got, err := store.Get(want.ID)
		if err != nil {
			t.Errorf("Get(%s): %v", want.ID, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Get(%s) = %+v, Scan has %+v", want.ID, got, want)
		}
	}
	var wantDamaged []string
	for name := range damage {
		wantDamaged = append(wantDamaged, name)
	}
	sort.Strings(wantDamaged)
	sort.Strings(damaged)
	if !reflect.DeepEqual(damaged, wantDamaged) {
		t.Errorf("Scan damaged = %v, want %v", damaged, wantDamaged)
	}
	unknown := []string{"j0008", "j9999", "", "j", "J0001", "j0001/", "j0001 ", "../j0001", "..%2F..", "../..", "j+1", "x"}
	for _, id := range append(wantDamaged, unknown...) {
		if j, err := store.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%q) = %+v, %v; want ErrNotFound", id, j, err)
		}
	}
}

// TestIDSeqGrammar pins the job-ID grammar: "j" and ASCII digits only.
func TestIDSeqGrammar(t *testing.T) {
	for id, want := range map[string]int{"j0": 0, "j0001": 1, "j10000": 10000} {
		if n, ok := idSeq(id); !ok || n != want {
			t.Errorf("idSeq(%q) = %d, %v; want %d, true", id, n, ok, want)
		}
	}
	for _, id := range []string{"", "j", "j+7", "j-3", "j 1", "j1x", "x1", "J1", "j١", "j99999999999999999999999"} {
		if n, ok := idSeq(id); ok {
			t.Errorf("idSeq(%q) = %d, true; want rejected", id, n)
		}
	}
}

// fillStore writes n settled (done) records without fsync, so a large
// store builds quickly.
func fillStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.putFn = func(path string, data []byte) error { return os.WriteFile(path, data, 0o666) }
	for i := 0; i < n; i++ {
		j := &Job{
			ID:           store.NextID(),
			Spec:         JobSpec{Profile: "tiny", Artifacts: []string{"table1"}, Client: "c"},
			State:        StateDone,
			TotalCells:   1,
			CellsDone:    1,
			CreatedUnix:  1,
			FinishedUnix: 2,
		}
		if err := store.Put(j); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestSchedulerStatusCostIndependentOfStoreSize pins the settled-job
// lookup at one record read: Status on a terminal job allocates the
// same whether the store holds 10 records or 1,000.
func TestSchedulerStatusCostIndependentOfStoreSize(t *testing.T) {
	allocs := func(n int) float64 {
		sched, err := NewScheduler(fillStore(t, t.TempDir(), n), Config{Jobs: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer sched.Close()
		if st, err := sched.Status("j0001"); err != nil || st.State != StateDone {
			t.Fatalf("Status(j0001) = %+v, %v; want done", st, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := sched.Status("j0001"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Errorf("Status allocations: %v at 10 records, %v at 1000; want equal", small, large)
	}
}

// TestSchedulerListOverlaysLiveRuns checks List's one-scan view: settled
// jobs come from their records, a live job reports its checkpoint's
// cell count (ahead of its record) and damaged directories are left out.
func TestSchedulerListOverlaysLiveRuns(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, 2)
	if err := os.MkdirAll(filepath.Join(dir, "j0099"), 0o777); err != nil {
		t.Fatal(err)
	}
	store, sched := newTestScheduler(t, dir, Config{Jobs: 2})
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
	sts, err := sched.List()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range sts {
		ids = append(ids, st.ID)
	}
	if want := []string{"j0001", "j0002", j.ID}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("List IDs = %v, want %v", ids, want)
	}
	if st := sts[0]; st.State != StateDone || st.DoneCells != 1 || st.Percent != 100 {
		t.Errorf("settled job in List: %+v", st)
	}
	live := sts[2]
	if live.State != StateRunning || live.DoneCells < 1 {
		t.Errorf("live job in List: state %s, %d cells done; want running with its checkpointed cells", live.State, live.DoneCells)
	}
	if rec, err := store.Get(j.ID); err != nil || rec.CellsDone >= live.DoneCells {
		t.Errorf("record %+v (err %v), List %d cells: List did not report the live count", rec, err, live.DoneCells)
	}
	if st, err := sched.Status(j.ID); err != nil || st.State != live.State {
		t.Errorf("Status(%s) = %+v, %v; List said %s", j.ID, st, err, live.State)
	}
	sched.Drain()
}

// TestServeStatusListWhileSettling polls Status and List from several
// goroutines while jobs run and settle. No submitted job may be missing,
// and each poller must see every job's state move only forward
// (queued, running, done), whether the answer came from the live run
// or from the record it leaves on disk.
func TestServeStatusListWhileSettling(t *testing.T) {
	_, sched := newTestScheduler(t, t.TempDir(), Config{Jobs: 2})
	defer sched.Close()
	rank := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := sched.Submit(JobSpec{Profile: "tiny", Artifacts: []string{"table1"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(useList bool) {
			defer wg.Done()
			seen := map[string]int{}
			check := func(st Status) {
				r, ok := rank[st.State]
				if !ok {
					t.Errorf("job %s in state %s", st.ID, st.State)
					return
				}
				if r < seen[st.ID] {
					t.Errorf("job %s went back to %s", st.ID, st.State)
				}
				seen[st.ID] = r
			}
			for !stop.Load() {
				if useList {
					sts, err := sched.List()
					if err != nil || len(sts) != len(ids) {
						t.Errorf("List: %d jobs, err %v; want %d", len(sts), err, len(ids))
						return
					}
					for _, st := range sts {
						check(st)
					}
					continue
				}
				for _, id := range ids {
					st, err := sched.Status(id)
					if err != nil {
						t.Errorf("Status(%s): %v", id, err)
						return
					}
					check(st)
				}
			}
		}(p == 0)
	}
	for _, id := range ids {
		waitState(t, sched, id, StateDone)
	}
	stop.Store(true)
	wg.Wait()
}

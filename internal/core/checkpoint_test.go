package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type ckCell struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestChaosCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	want := ckCell{Name: "fig2/BFS/Wiki", Value: 1.375}
	if err := ck.Record("fig2/BFS/Wiki", want); err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("table3/Wiki", ckCell{Name: "table3/Wiki", Value: 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, "small", true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 2 {
		t.Fatalf("resumed checkpoint holds %d cells, want 2", ck2.Len())
	}
	var got ckCell
	ok, err := ck2.Lookup("fig2/BFS/Wiki", &got)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v; want found", ok, err)
	}
	if got != want {
		t.Fatalf("restored cell = %+v, want %+v", got, want)
	}
	if ok, _ := ck2.Lookup("fig2/PageRank/Wiki", &got); ok {
		t.Fatal("Lookup found a cell that was never recorded")
	}
}

func TestChaosCheckpointProfileMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	ck.Record("k", ckCell{Name: "k"})
	ck.Close()

	if _, err := OpenCheckpoint(path, "medium", true); err == nil ||
		!strings.Contains(err.Error(), "profile") {
		t.Fatalf("resume with mismatched profile: err = %v, want profile error", err)
	}
}

// A run killed mid-append leaves a truncated last line; resume must
// tolerate it and rerun only that cell.
func TestChaosCheckpointTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "small", false)
	if err != nil {
		t.Fatal(err)
	}
	ck.Record("a", ckCell{Name: "a", Value: 1})
	ck.Record("b", ckCell{Name: "b", Value: 2})
	ck.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"c","val`) // SIGKILL mid-append
	f.Close()

	ck2, err := OpenCheckpoint(path, "small", true)
	if err != nil {
		t.Fatalf("resume over torn final line: %v", err)
	}
	defer ck2.Close()
	if ck2.Len() != 2 {
		t.Fatalf("resumed %d cells, want 2 (torn cell dropped)", ck2.Len())
	}
	var got ckCell
	if ok, _ := ck2.Lookup("c", &got); ok {
		t.Fatal("torn cell must not be restored")
	}
	// The torn tail is truncated on resume, so re-recording the lost
	// cell yields a file a further resume reads completely.
	if err := ck2.Record("c", ckCell{Name: "c", Value: 3}); err != nil {
		t.Fatal(err)
	}
	ck2.Close()
	ck3, err := OpenCheckpoint(path, "small", true)
	if err != nil {
		t.Fatalf("resume after torn-tail repair: %v", err)
	}
	defer ck3.Close()
	if ck3.Len() != 3 {
		t.Fatalf("final resume holds %d cells, want 3", ck3.Len())
	}
	if ok, _ := ck3.Lookup("c", &got); !ok || got.Value != 3 {
		t.Fatalf("repaired cell = %v %+v, want found with value 3", ok, got)
	}
}

// A failed or short append must not leave a torn line that a later
// Record appends after: resume would then reject the mid-file fragment
// as corruption and lose the whole sweep. Record cuts the fragment
// back, so the next append starts on a clean line. Both a fresh
// checkpoint (written at the file offset) and a resumed one (O_APPEND)
// are covered.
func TestChaosCheckpointShortWriteCutBack(t *testing.T) {
	for _, resume := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if resume {
			ck, err := OpenCheckpoint(path, "tiny", false)
			if err != nil {
				t.Fatal(err)
			}
			ck.Close()
		}
		ck, err := OpenCheckpoint(path, "tiny", resume)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Record("a", ckCell{Name: "a", Value: 1}); err != nil {
			t.Fatal(err)
		}
		real := ck.writeFn
		ck.writeFn = func(b []byte) (int, error) {
			n, _ := real(b[:len(b)/2])
			return n, errors.New("no space left on device")
		}
		if err := ck.Record("b", ckCell{Name: "b", Value: 2}); err == nil {
			t.Fatal("short write reported success")
		}
		ck.writeFn = real
		if err := ck.Record("c", ckCell{Name: "c", Value: 3}); err != nil {
			t.Fatalf("resume=%v: Record after a cut-back short write: %v", resume, err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		ck2, err := OpenCheckpoint(path, "tiny", true)
		if err != nil {
			t.Fatalf("resume=%v: resume after a short write: %v", resume, err)
		}
		var got ckCell
		for _, key := range []string{"a", "c"} {
			if ok, err := ck2.Lookup(key, &got); !ok || err != nil {
				t.Errorf("resume=%v: intact cell %q not restored (%v)", resume, key, err)
			}
		}
		if ok, _ := ck2.Lookup("b", &got); ok {
			t.Errorf("resume=%v: the failed cell was restored", resume)
		}
		ck2.Close()
	}
}

// When the torn fragment cannot be cut back, no later append may land
// after it: the error latches, and a resume drops only the fragment.
func TestChaosCheckpointTornAppendLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "tiny", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("a", ckCell{Name: "a", Value: 1}); err != nil {
		t.Fatal(err)
	}
	real := ck.writeFn
	ck.writeFn = func(b []byte) (int, error) {
		n, _ := real(b[:len(b)/2])
		ck.f.Close() // the cut-back's truncate now fails too
		return n, errors.New("I/O error")
	}
	if err := ck.Record("b", ckCell{Name: "b", Value: 2}); err == nil {
		t.Fatal("failed append reported success")
	}
	ck.writeFn = real
	if err := ck.Record("c", ckCell{Name: "c", Value: 3}); err == nil {
		t.Fatal("Record after an uncut torn append succeeded")
	}
	ck2, err := OpenCheckpoint(path, "tiny", true)
	if err != nil {
		t.Fatalf("resume after a latched torn append: %v", err)
	}
	defer ck2.Close()
	if ck2.Len() != 1 {
		t.Fatalf("resumed %d cells, want 1", ck2.Len())
	}
}

func TestChaosCheckpointCorruptInteriorLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte(
		"{\"checkpoint\":\"dvm/1\",\"profile\":\"small\"}\n"+
			"not json at all\n"+
			"{\"key\":\"b\",\"value\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "small", true); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("interior corruption: err = %v, want corrupt-line error", err)
	}
}

func TestChaosCheckpointNotACheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if err := os.WriteFile(path, []byte("{\"tables\":[]}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(path, "small", true); err == nil {
		t.Fatal("resume against a non-checkpoint JSON file must fail")
	}
}

func TestChaosCheckpointResumeMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "small", true)
	if err != nil {
		t.Fatalf("resume with no existing file must start fresh: %v", err)
	}
	defer ck.Close()
	if ck.Len() != 0 {
		t.Fatalf("fresh resume holds %d cells, want 0", ck.Len())
	}
	if err := ck.Record("a", ckCell{Name: "a"}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosCheckpointNilSafe(t *testing.T) {
	var ck *Checkpoint
	if ok, err := ck.Lookup("k", &ckCell{}); ok || err != nil {
		t.Fatalf("nil Lookup = %v, %v", ok, err)
	}
	if err := ck.Record("k", ckCell{}); err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 0 || ck.Close() != nil {
		t.Fatal("nil Len/Close must be no-ops")
	}
}

// Records written by a resumed run for already-restored cells are
// dropped, so repeated interrupt/resume cycles never bloat the file.
func TestChaosCheckpointDuplicateRecordDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, _ := OpenCheckpoint(path, "small", false)
	ck.Record("a", ckCell{Name: "a", Value: 1})
	ck.Close()
	ck2, err := OpenCheckpoint(path, "small", true)
	if err != nil {
		t.Fatal(err)
	}
	ck2.Record("a", ckCell{Name: "a", Value: 1})
	ck2.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\"key\":\"a\""); n != 1 {
		t.Fatalf("cell recorded %d times across resume, want 1", n)
	}
}

// A machine crash (not just a process crash) must lose bounded work:
// Record fsyncs every syncEvery appends and Close always fsyncs. The
// spy wraps the real file Sync so the cadence is counted exactly.
func TestChaosCheckpointSyncCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "tiny", false)
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	real := ck.syncFn
	ck.syncFn = func() error {
		syncs++
		return real()
	}
	ck.SetSyncEvery(3)
	for i := 0; i < 7; i++ {
		if err := ck.Record(fmt.Sprintf("cell/%d", i), ckCell{Name: "c", Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 2 {
		t.Fatalf("7 records at cadence 3 fsynced %d times, want 2", syncs)
	}
	// Duplicate re-records (a resumed run) must not count toward the
	// cadence: nothing new reached the file.
	for i := 0; i < 3; i++ {
		if err := ck.Record(fmt.Sprintf("cell/%d", i), ckCell{Name: "c", Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 2 {
		t.Fatalf("duplicate records advanced the sync cadence (%d syncs)", syncs)
	}
	if err := ck.Sync(); err != nil {
		t.Fatal(err)
	}
	if syncs != 3 {
		t.Fatalf("explicit Sync did not fsync (%d syncs)", syncs)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs != 4 {
		t.Fatalf("Close did not fsync (%d syncs)", syncs)
	}
	// SetSyncEvery(0) restores the default cadence.
	ck2, err := OpenCheckpoint(path, "tiny", true)
	if err != nil {
		t.Fatal(err)
	}
	ck2.SetSyncEvery(0)
	if ck2.syncEvery != defaultSyncEvery {
		t.Fatalf("SetSyncEvery(0) left cadence %d, want default %d", ck2.syncEvery, defaultSyncEvery)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Record and Lookup race from many goroutines in a -j sweep; the file
// and the in-memory index must stay coherent under -race, and every
// recorded cell must be durable and resumable.
func TestChaosCheckpointConcurrentRecordLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ck, err := OpenCheckpoint(path, "tiny", false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetSyncEvery(5)
	const workers, cells = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*cells)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				// Workers collide on the same key space deliberately:
				// the duplicate-drop path must be as race-free as the
				// append path.
				key := fmt.Sprintf("cell/%d", i)
				var got ckCell
				if _, err := ck.Lookup(key, &got); err != nil {
					errs <- err
					return
				}
				if err := ck.Record(key, ckCell{Name: key, Value: float64(i)}); err != nil {
					errs <- err
					return
				}
				if ok, err := ck.Lookup(key, &got); err != nil || !ok {
					errs <- fmt.Errorf("lookup after record: ok=%v err=%v", ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := ck.Len(); got != cells {
		t.Fatalf("checkpoint holds %d cells, want %d", got, cells)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := OpenCheckpoint(path, "tiny", true)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Len(); got != cells {
		t.Fatalf("resume restored %d cells, want %d", got, cells)
	}
	for i := 0; i < cells; i++ {
		var got ckCell
		ok, err := resumed.Lookup(fmt.Sprintf("cell/%d", i), &got)
		if err != nil || !ok {
			t.Fatalf("cell/%d not restored: ok=%v err=%v", i, ok, err)
		}
		if got.Value != float64(i) {
			t.Fatalf("cell/%d restored value %v, want %d", i, got.Value, i)
		}
	}
}

package report

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
)

// snapshotJSON renders a collector the way the commands' -metrics flag
// does.
func snapshotJSON(t *testing.T, coll *obs.Collector) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := coll.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestChaosCheckpointResumeEquivalence kills a sweep at a cell boundary,
// resumes it from the checkpoint, and requires the rendered tables AND
// the merged metrics snapshot to be byte-identical to a straight-through
// run — at different -j values on each side.
func TestChaosCheckpointResumeEquivalence(t *testing.T) {
	prof := core.ProfileTiny
	generate := func(out io.Writer, opts Options) error {
		if err := figure2(prof, out, opts); err != nil {
			return err
		}
		return table1(prof, out, opts)
	}

	// Reference: uninterrupted, no checkpoint.
	var refOut strings.Builder
	refColl := obs.NewCollector()
	if err := generate(&refOut, Options{Jobs: 2, Metrics: refColl, Prepared: core.NewPreparedCache()}); err != nil {
		t.Fatal(err)
	}
	refMetrics := snapshotJSON(t, refColl)

	for _, killAfter := range []int{1, 3} {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		ck, err := core.OpenCheckpoint(path, prof.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int32
		kills := killAfter
		intOpts := Options{
			Ctx:        ctx,
			Jobs:       2,
			Checkpoint: ck,
			Metrics:    obs.NewCollector(),
			Prepared:   core.NewPreparedCache(),
			// The progress sink fires once per completed cell — the
			// same boundary a SIGINT lands on in the commands.
			Progress: func(string, ...interface{}) {
				if int(done.Add(1)) >= kills {
					cancel()
				}
			},
		}
		ierr := generate(io.Discard, intOpts)
		cancel()
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		if ierr == nil {
			t.Fatalf("killAfter=%d: interrupted sweep unexpectedly completed", killAfter)
		}

		// Resume at a different -j with a fresh collector and cache.
		ck2, err := core.OpenCheckpoint(path, prof.Name, true)
		if err != nil {
			t.Fatal(err)
		}
		if ck2.Len() == 0 {
			t.Fatalf("killAfter=%d: nothing checkpointed before the kill", killAfter)
		}
		var resOut strings.Builder
		resColl := obs.NewCollector()
		resOpts := Options{Jobs: 4, Checkpoint: ck2, Metrics: resColl, Prepared: core.NewPreparedCache()}
		if err := generate(&resOut, resOpts); err != nil {
			t.Fatalf("killAfter=%d: resumed sweep failed: %v", killAfter, err)
		}
		if err := ck2.Close(); err != nil {
			t.Fatal(err)
		}
		if resOut.String() != refOut.String() {
			t.Errorf("killAfter=%d: resumed tables differ from straight-through run:\n--- resumed ---\n%s\n--- reference ---\n%s",
				killAfter, resOut.String(), refOut.String())
		}
		if got := snapshotJSON(t, resColl); !bytes.Equal(got, refMetrics) {
			t.Errorf("killAfter=%d: resumed -metrics snapshot differs from straight-through run:\n%s\nvs\n%s",
				killAfter, got, refMetrics)
		}
	}
}

// TestChaosCheckpointRestoredCellsCrossCheck resumes a Figure 8/9 sweep
// where every cell is already checkpointed: the full RunResult matrix
// (per-mode counters, energy, registry snapshots) must survive the JSON
// round-trip well enough to re-pass CrossCheck and reproduce the table
// and metrics bit-for-bit.
func TestChaosCheckpointRestoredCellsCrossCheck(t *testing.T) {
	prof := core.ProfileTiny
	path := filepath.Join(t.TempDir(), "fig8.ckpt")
	ck, err := core.OpenCheckpoint(path, prof.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	var refOut strings.Builder
	refColl := obs.NewCollector()
	if err := figure8And9(prof, &refOut, Options{Jobs: 0, Checkpoint: ck, Metrics: refColl, Prepared: core.NewPreparedCache()}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := core.OpenCheckpoint(path, prof.Name, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if want := len(prof.Workloads()); ck2.Len() != want {
		t.Fatalf("checkpoint holds %d cells, want %d", ck2.Len(), want)
	}
	var resOut strings.Builder
	resColl := obs.NewCollector()
	// Every cell restores from disk; CrossCheck re-runs on each restored
	// RunResult inside the generator.
	if err := figure8And9(prof, &resOut, Options{Jobs: 1, Checkpoint: ck2, Metrics: resColl, Prepared: core.NewPreparedCache()}); err != nil {
		t.Fatalf("fully-restored sweep failed: %v", err)
	}
	if resOut.String() != refOut.String() {
		t.Error("fully-restored Figure 8/9 tables differ from the computing run")
	}
	if !bytes.Equal(snapshotJSON(t, resColl), snapshotJSON(t, refColl)) {
		t.Error("fully-restored Figure 8/9 metrics differ from the computing run")
	}
}

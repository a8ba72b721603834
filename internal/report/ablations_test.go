package report

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/runner"
)

// graphFiles counts what a dir-backed PreparedCache wrote to dir: one
// file per graph it generated.
func graphFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(ents)
}

// TestAblationsCellProtocol runs the Ablations reference Ideal cell
// through the same cell protocol as every other cell: a cancelled sweep
// prepares and counts nothing, the cell watchdog covers it, and a run
// restored entirely from a checkpoint renders the same bytes and
// metrics without generating the workload's graph.
func TestAblationsCellProtocol(t *testing.T) {
	prof := core.ProfileTiny

	t.Run("cancelled", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "graphs")
		cache := core.NewPreparedCacheDir(dir)
		defer cache.Close()
		ck, err := core.OpenCheckpoint(filepath.Join(t.TempDir(), "abl.ckpt"), prof.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		coll := obs.NewCollector()
		err = ablations(prof, &bytes.Buffer{}, Options{Ctx: ctx, Jobs: 1, Metrics: coll, Prepared: cache, Checkpoint: ck})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ablations returned %v, want context.Canceled", err)
		}
		if got := coll.Snapshot().Get("runner.cells.done"); got != 0 {
			t.Errorf("cancelled ablations counted %d cells, want 0", got)
		}
		if ck.Len() != 0 {
			t.Errorf("cancelled ablations recorded %d cells, want 0", ck.Len())
		}
		if n := graphFiles(t, dir); n != 0 {
			t.Errorf("cancelled ablations generated graphs: the cache dir holds %d files", n)
		}
	})

	t.Run("watchdog", func(t *testing.T) {
		coll := obs.NewCollector()
		err := ablations(prof, &bytes.Buffer{}, Options{Jobs: 1, Metrics: coll, Prepared: core.NewPreparedCache(), CellTimeout: time.Millisecond})
		var ce *runner.CellError
		if !errors.As(err, &ce) || ce.Index != 0 {
			t.Fatalf("ablations under a 1 ms watchdog returned %v, want a *runner.CellError for cell 0", err)
		}
		if got := coll.Snapshot().Get("runner.cells.done"); got != 0 {
			t.Errorf("timed-out ablations counted %d cells, want 0", got)
		}
	})

	t.Run("restored", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "abl.ckpt")
		ck, err := core.OpenCheckpoint(path, prof.Name, false)
		if err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		refColl := obs.NewCollector()
		if err := ablations(prof, &ref, Options{Jobs: 2, Metrics: refColl, Prepared: core.NewPreparedCache(), Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		ck, err = core.OpenCheckpoint(path, prof.Name, true)
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		dir := filepath.Join(t.TempDir(), "graphs")
		cache := core.NewPreparedCacheDir(dir)
		defer cache.Close()
		var res bytes.Buffer
		resColl := obs.NewCollector()
		if err := ablations(prof, &res, Options{Jobs: 1, Metrics: resColl, Prepared: cache, Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Bytes(), ref.Bytes()) {
			t.Errorf("restored ablations differ from the computing run:\n%s\nwant:\n%s", res.String(), ref.String())
		}
		if !bytes.Equal(snapshotJSON(t, resColl), snapshotJSON(t, refColl)) {
			t.Error("restored ablations metrics differ from the computing run")
		}
		if n := graphFiles(t, dir); n != 0 {
			t.Errorf("fully restored ablations generated graphs: the cache dir holds %d files", n)
		}
	})
}

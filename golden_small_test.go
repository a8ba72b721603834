package dvm_test

import (
	"bytes"
	"os"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/obs"
	"github.com/dvm-sim/dvm/internal/report"
	"github.com/dvm-sim/dvm/internal/runner"
)

// TestGoldenSmallFastArtifacts regenerates the sub-second artifacts of the
// small profile (table3, table1, virt) and compares them byte-for-byte
// against testdata/golden_small_fast.txt — the exact stdout of
//
//	dvmrepro -profile small -only table3,table1,virt -j 1 -q
//
// The tiny golden covers every artifact; this one gives the *small*
// profile a cheap byte-identity referee too. Table 3 and Table 1 read
// only the datasets' shapes, so the sweep generates no graph and does
// not drive the parallel CSR build; TestFromEdgesParallelMatchesSequential
// and TestBipartiteParallelMatchesSequential (internal/graph) do. It
// runs the sweep twice, sequentially and with a worker budget (Jobs 8),
// and both must reproduce the committed file exactly.
//
// Refresh (only when an intentional modeling change lands):
//
//	go run ./cmd/dvmrepro -profile small -only table3,table1,virt -j 1 -q > testdata/golden_small_fast.txt
func TestGoldenSmallFastArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("small-profile regeneration; skipped with -short")
	}
	want, err := os.ReadFile("testdata/golden_small_fast.txt")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileByName("small")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"sequential", 1},
		{"jobs8", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := report.Options{
				Jobs:     tc.jobs,
				Workers:  runner.BudgetFor(tc.jobs),
				Metrics:  &obs.Collector{},
				Prepared: core.NewPreparedCache(),
			}
			var out bytes.Buffer
			wanted := map[string]bool{"table3": true, "table1": true, "virt": true}
			if err := report.Sweep(prof, &out, opts, wanted, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("small-profile fast artifacts diverged from testdata/golden_small_fast.txt "+
					"(got %d bytes, want %d); if a modeling change is intentional, refresh per the comment above",
					out.Len(), len(want))
			}
		})
	}
}

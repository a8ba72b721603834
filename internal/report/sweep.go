package report

import (
	"errors"
	"fmt"
	"io"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/shbench"
)

// ArtifactKeys is the artifact vocabulary in paper rendering order —
// the -only flag of dvmrepro and the "artifacts" field of a dvmserved
// job both validate against it.
var ArtifactKeys = []string{"table3", "fig2", "table1", "fig8", "fig9", "table4", "fig10", "table5", "ablations", "virt"}

// KnownArtifact reports whether key names a paper artifact.
func KnownArtifact(key string) bool {
	for _, k := range ArtifactKeys {
		if k == key {
			return true
		}
	}
	return false
}

// ArtifactError is the failure of one artifact inside a Sweep, naming
// which artifact broke so callers can report (and resume) precisely.
type ArtifactError struct {
	Key string
	Err error
}

// Error implements error.
func (e *ArtifactError) Error() string { return fmt.Sprintf("%s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ArtifactError) Unwrap() error { return e.Err }

// ArtifactKeyOf extracts the artifact name from a Sweep failure ("" if
// err carries no *ArtifactError).
func ArtifactKeyOf(err error) string {
	var ae *ArtifactError
	if errors.As(err, &ae) {
		return ae.Key
	}
	return ""
}

// Sweep renders the wanted artifacts to w in paper order, exactly as
// cmd/dvmrepro always has: each rendered table is followed by one blank
// line, and fig8/fig9 — which come from the same runs — render together
// once when either is wanted. A nil wanted map selects every artifact. It is the
// single rendering path shared by dvmrepro and the dvmserved job
// executor, which is what makes a daemon job's table bytes (and, via
// opts.Metrics, its metrics snapshot) identical to a single-shot run.
//
// observe, when non-nil, wraps every artifact render — the seam for
// per-artifact status lines and timing; it must call render exactly
// once. The first failure returns wrapped in *ArtifactError naming the
// artifact.
func Sweep(prof core.Profile, w io.Writer, opts Options, wanted map[string]bool, observe func(key string, render func() error) error) error {
	want := func(key string) bool { return wanted == nil || wanted[key] }
	run := func(key string, render func() error) error {
		if !want(key) {
			return nil
		}
		fn := render
		if observe != nil {
			fn = func() error { return observe(key, render) }
		}
		if err := fn(); err != nil {
			return &ArtifactError{Key: key, Err: err}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return &ArtifactError{Key: key, Err: err}
		}
		return nil
	}
	if err := run("table3", func() error { return Table3(prof, w, opts) }); err != nil {
		return err
	}
	if err := run("fig2", func() error { return Figure2(prof, w, opts) }); err != nil {
		return err
	}
	if err := run("table1", func() error { return Table1(prof, w, opts) }); err != nil {
		return err
	}
	// fig8 and fig9 come from the same runs; requesting either (or both)
	// renders both tables once, under whichever key was asked for.
	if want("fig8") || want("fig9") {
		key := "fig8"
		if wanted != nil && !wanted["fig8"] {
			key = "fig9"
		}
		if err := run(key, func() error { return Figure8And9(prof, w, opts) }); err != nil {
			return err
		}
	}
	if err := run("table4", func() error { return Table4(w, opts) }); err != nil {
		return err
	}
	if err := run("fig10", func() error { return Figure10(w, opts) }); err != nil {
		return err
	}
	if err := run("table5", func() error { return Table5(w) }); err != nil {
		return err
	}
	if err := run("ablations", func() error { return Ablations(prof, w, opts) }); err != nil {
		return err
	}
	return run("virt", func() error { return Virtualization(w, opts) })
}

// CellCount returns how many experiment cells the wanted artifacts of
// prof comprise — the progress denominator a daemon job reports before
// any cell has run. It mirrors each generator's cell declaration
// exactly; table5 is static text and contributes none.
func CellCount(prof core.Profile, wanted map[string]bool) int {
	want := func(key string) bool { return wanted == nil || wanted[key] }
	wls := len(prof.Workloads())
	n := 0
	if want("table3") {
		n += len(graph.Datasets)
	}
	if want("fig2") {
		n += wls
	}
	if want("table1") {
		for _, wl := range prof.Workloads() {
			if wl.Algorithm == "PageRank" || wl.Algorithm == "CF" {
				n++
			}
		}
	}
	if want("fig8") || want("fig9") {
		n += wls
	}
	if want("table4") {
		n += len(shbench.Experiments) * len(shbench.MemorySizes)
	}
	if want("fig10") {
		n += len(cpu.Workloads)
	}
	if want("ablations") {
		n += 1 + len(ablationFanouts) + len(ablationCapacities) + len(ablationToggles)
	}
	if want("virt") {
		n += len(virtSchemes)
	}
	return n
}

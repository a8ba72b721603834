package report

import (
	"errors"
	"fmt"
	"io"

	"github.com/dvm-sim/dvm/internal/core"
	"github.com/dvm-sim/dvm/internal/cpu"
	"github.com/dvm-sim/dvm/internal/graph"
)

// artifact is one entry of the paper's evaluation matrix: the keys that
// select it, how many cells it runs at a profile, and its generator.
// An artifact with two keys (fig8, fig9) renders once when either is
// wanted, under the first wanted key.
type artifact struct {
	keys  []string
	cells func(prof core.Profile) int
	gen   func(prof core.Profile, w io.Writer, opts Options) error
}

// artifacts lists the paper's evaluation in rendering order. Each cell
// count comes from the same helper its generator iterates.
var artifacts = []artifact{
	{[]string{"table3"}, func(core.Profile) int { return len(graph.Datasets) }, table3},
	{[]string{"fig2"}, func(p core.Profile) int { return len(p.Workloads()) }, figure2},
	{[]string{"table1"}, func(p core.Profile) int { return len(table1Workloads(p)) }, table1},
	{[]string{"fig8", "fig9"}, func(p core.Profile) int { return len(p.Workloads()) }, figure8And9},
	{[]string{"table4"}, func(core.Profile) int { return len(table4Cells()) }, table4},
	{[]string{"fig10"}, func(core.Profile) int { return len(cpu.Workloads) }, figure10},
	{[]string{"table5"}, func(core.Profile) int { return 0 }, table5},
	{[]string{"ablations"}, func(core.Profile) int { return 1 + len(ablationCells()) }, ablations},
	{[]string{"virt"}, func(core.Profile) int { return len(virtSchemes) }, virtualization},
}

// key returns the key a renders under for the wanted set (nil wants
// everything): its first wanted key, or "" when none is wanted.
func (a artifact) key(wanted map[string]bool) string {
	for _, k := range a.keys {
		if wanted == nil || wanted[k] {
			return k
		}
	}
	return ""
}

// ArtifactKeys is the artifact vocabulary in paper rendering order —
// the -only flag of dvmrepro and the "artifacts" field of a dvmserved
// job both validate against it.
var ArtifactKeys = func() []string {
	var keys []string
	for _, a := range artifacts {
		keys = append(keys, a.keys...)
	}
	return keys
}()

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
	for _, a := range artifacts {
		key := a.key(wanted)
		if key == "" {
			continue
		}
		render := func() error { return a.gen(prof, w, opts) }
		var err error
		if observe != nil {
			err = observe(key, render)
		} else {
			err = render()
		}
		if err != nil {
			return &ArtifactError{Key: key, Err: err}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return &ArtifactError{Key: key, Err: err}
		}
	}
	return nil
}

// CellCount returns how many experiment cells the wanted artifacts of
// prof comprise — the progress denominator a daemon job reports before
// any cell has run. It is counted from the artifact list, so it agrees
// with the generators by construction; table5 is static text and
// contributes none.
func CellCount(prof core.Profile, wanted map[string]bool) int {
	n := 0
	for _, a := range artifacts {
		if a.key(wanted) != "" {
			n += a.cells(prof)
		}
	}
	return n
}

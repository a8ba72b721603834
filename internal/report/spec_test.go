package report

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/core"
)

// TestSpecKey pins the checkpoint namespace: checkpoints and daemon job
// records written before Spec existed carry these exact header strings,
// so a change here would orphan every one of them. Over a grid of
// specs it also checks that distinct sweeps never share a namespace.
func TestSpecKey(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Profile: "tiny"}, "tiny"},
		{Spec{Profile: "tiny", Modes: "paper", Artifacts: []string{"fig8"}}, "tiny"},
		{Spec{Profile: "tiny", Modes: "extended"}, "tiny+modes(extended)"},
		{Spec{Profile: "small", ChaosRate: 0.05, ChaosSeed: 7}, "small+chaos(seed=7,rate=0.05)"},
		{Spec{Profile: "tiny", ChaosRate: 0.05}, "tiny+chaos(seed=1,rate=0.05)"},
		{Spec{Profile: "tiny", ChaosRate: 1e-7, ChaosSeed: -3}, "tiny+chaos(seed=-3,rate=1e-07)"},
		{Spec{Profile: "tiny", ChaosSeed: 9}, "tiny"},
		{Spec{Profile: "tiny", Modes: "extended", ChaosRate: 0.1}, "tiny+modes(extended)+chaos(seed=1,rate=0.1)"},
	} {
		if got := tc.spec.Key(); got != tc.want {
			t.Errorf("%+v.Key() = %q, want %q", tc.spec, got, tc.want)
		}
	}

	seen := map[string]Spec{}
	for _, prof := range []string{"tiny", "small"} {
		for _, modes := range []string{"", "extended"} {
			for _, c := range []struct {
				rate float64
				seed int64
			}{{0, 0}, {0.05, 1}, {0.05, 7}, {0.1, 1}, {1, 2}} {
				s := Spec{Profile: prof, Modes: modes, ChaosRate: c.rate, ChaosSeed: c.seed}
				k := s.Key()
				if prev, dup := seen[k]; dup {
					t.Errorf("specs %+v and %+v share the namespace %q", prev, s, k)
				}
				seen[k] = s
			}
		}
	}
}

// TestSpecResolve checks Resolve's validation and what it applies to
// Options: the mode set, the chaos campaign (seed 0 meaning 1) and the
// artifact selection.
func TestSpecResolve(t *testing.T) {
	for _, tc := range []struct {
		spec   Spec
		errSub string // "" = valid
	}{
		{Spec{Profile: "no-such-profile"}, "unknown profile"},
		{Spec{Profile: "tiny", Artifacts: []string{"fig99", "fig7"}}, "unknown artifact key(s) fig7, fig99; valid keys: table3"},
		{Spec{Profile: "tiny", Artifacts: []string{" ", ""}}, "selection is empty; valid keys"},
		{Spec{Profile: "tiny", Modes: "bogus"}, "unknown modes"},
		{Spec{Profile: "tiny", ChaosRate: 1.5}, "outside [0, 1]"},
		{Spec{Profile: "tiny", ChaosRate: -0.1}, "outside [0, 1]"},
		{Spec{Profile: "tiny", ChaosRate: math.NaN()}, "outside [0, 1]"},
		{Spec{Profile: "tiny", Modes: "paper", ChaosRate: 1, Artifacts: []string{" fig2", "fig9 ", ""}}, ""},
	} {
		_, _, err := tc.spec.Resolve(&Options{})
		if tc.errSub == "" && err != nil {
			t.Errorf("%+v: unexpected error %v", tc.spec, err)
		}
		if tc.errSub != "" && (err == nil || !strings.Contains(err.Error(), tc.errSub)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.spec, err, tc.errSub)
		}
	}

	var opts Options
	prof, wanted, err := Spec{Profile: "tiny"}.Resolve(&opts)
	if err != nil || prof.Name != "tiny" || wanted != nil || opts.Modes != nil || opts.Chaos != nil {
		t.Errorf("default spec: prof %q wanted %v modes %v chaos %v err %v", prof.Name, wanted, opts.Modes, opts.Chaos, err)
	}
	spec := Spec{Profile: "tiny", Modes: "extended", Artifacts: []string{" fig2", "fig9 ", ""}, ChaosRate: 0.25}
	_, wanted, err = spec.Resolve(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"fig2": true, "fig9": true}; !reflect.DeepEqual(wanted, want) {
		t.Errorf("wanted = %v, want %v", wanted, want)
	}
	if !reflect.DeepEqual(opts.Modes, core.RegisteredModes()) {
		t.Errorf("extended modes = %v, want every registered mode", opts.Modes)
	}
	if opts.Chaos == nil || *opts.Chaos != (chaos.Config{Seed: 1, Rate: 0.25}) {
		t.Errorf("chaos = %+v, want seed 1 rate 0.25", opts.Chaos)
	}
}

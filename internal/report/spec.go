package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/core"
)

// Spec is the identity of one sweep: which profile, which artifacts,
// which mode set and which fault-injection campaign. Both
// front ends build one — dvmrepro from its flags, dvmserved from a
// job's JSON — so the sweep vocabulary is validated, mapped onto
// Options and named as a checkpoint namespace in exactly one place.
type Spec struct {
	// Profile names the experiment profile (tiny, small, ...).
	Profile string
	// Artifacts restricts the sweep to a subset of ArtifactKeys, in any
	// order; blank entries are ignored. Empty selects every artifact.
	Artifacts []string
	// Modes selects the fig8/fig9 mode matrix: "" or "paper" (the seven
	// paper columns) or "extended" (every registered mode).
	Modes string
	// ChaosRate, when > 0, arms deterministic fault injection at this
	// per-site probability (outputs are then not paper artifacts).
	ChaosRate float64
	// ChaosSeed fixes the fault schedule; 0 means 1.
	ChaosSeed int64
}

// Resolve validates the spec and applies it to opts (Modes and Chaos).
// It returns the profile and the artifact selection for Sweep
// and CellCount (nil selects every artifact).
func (s Spec) Resolve(opts *Options) (core.Profile, map[string]bool, error) {
	prof, err := core.ProfileByName(s.Profile)
	if err != nil {
		return core.Profile{}, nil, err
	}
	var wanted map[string]bool
	if len(s.Artifacts) > 0 {
		wanted = map[string]bool{}
		var unknown []string
		for _, k := range s.Artifacts {
			switch k = strings.TrimSpace(k); {
			case k == "":
			case slices.Contains(ArtifactKeys, k):
				wanted[k] = true
			default:
				unknown = append(unknown, k)
			}
		}
		valid := strings.Join(ArtifactKeys, ", ")
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return core.Profile{}, nil, fmt.Errorf("report: unknown artifact key(s) %s; valid keys: %s", strings.Join(unknown, ", "), valid)
		}
		if len(wanted) == 0 {
			return core.Profile{}, nil, fmt.Errorf("report: artifact selection is empty; valid keys: %s", valid)
		}
	}
	var modes []core.Mode
	switch s.Modes {
	case "", "paper":
		// nil: the seven-column byte-stable artifact.
	case "extended":
		modes = core.RegisteredModes()
	default:
		return core.Profile{}, nil, fmt.Errorf("report: unknown modes %q (paper|extended)", s.Modes)
	}
	if err := (&chaos.Config{Rate: s.ChaosRate}).Validate(); err != nil {
		return core.Profile{}, nil, err
	}
	opts.Modes = modes
	opts.Chaos = s.chaosConfig()
	return prof, wanted, nil
}

// chaosConfig returns the fault-injection campaign, nil when disarmed.
func (s Spec) chaosConfig() *chaos.Config {
	if s.ChaosRate <= 0 {
		return nil
	}
	seed := s.ChaosSeed
	if seed == 0 {
		seed = 1
	}
	return &chaos.Config{Seed: seed, Rate: s.ChaosRate}
}

// Key returns the checkpoint namespace of the sweep: the profile name,
// then "+modes(extended)" and "+chaos(seed=S,rate=R)" when set, so cells
// simulated under another mode set or fault campaign never satisfy this
// sweep's resume.
func (s Spec) Key() string {
	k := s.Profile
	if s.Modes == "extended" {
		k += "+modes(extended)"
	}
	if c := s.chaosConfig(); c != nil {
		k += fmt.Sprintf("+chaos(seed=%d,rate=%g)", c.Seed, c.Rate)
	}
	return k
}

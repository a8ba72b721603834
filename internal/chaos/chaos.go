// Package chaos is the deterministic fault-injection layer of the
// simulator. A *Config describes what to inject (seed + rate); each
// simulated run derives its own *Injector from the config and a set of
// labels naming the run (algorithm, dataset, mode), so fault decisions
// are a pure function of (seed, labels, draw index) — independent of
// -j, goroutine scheduling, and wall clock. A nil *Injector is valid
// and disabled: every method no-ops after one nil check, so hot paths
// pay nothing when chaos is off.
//
// Faults are *simulated*: an injected PTE corruption makes the walker
// report a typed fault for that translation, it never mutates shared
// page-table state or harness memory. The harness layers above
// (internal/runner, internal/core) are responsible for containing the
// resulting errors.
package chaos

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/obs"
)

// Site identifies one injection point in the simulated machine.
type Site uint8

// Injection sites.
const (
	// SiteAllocFail: osmodel fails a contiguous identity allocation,
	// forcing the demand-paged (non-identity) fallback.
	SiteAllocFail Site = iota
	// SitePTECorrupt: a page-table walk lands on a corrupted entry and
	// faults instead of translating.
	SitePTECorrupt
	// SitePTETruncate: a walk finds its subtree truncated mid-descent
	// (missing interior node) and faults as unmapped.
	SitePTETruncate
	// SitePEPermBad: a Permission Entry carries a malformed permission
	// field; validation faults instead of trusting it.
	SitePEPermBad
	// SiteMemLatency: the memory controller serves one request with a
	// contention spike added to its queueing delay.
	SiteMemLatency
	numSites
)

// String returns the site's registry-style name.
func (s Site) String() string {
	switch s {
	case SiteAllocFail:
		return "alloc.fail"
	case SitePTECorrupt:
		return "pte.corrupt"
	case SitePTETruncate:
		return "pte.truncate"
	case SitePEPermBad:
		return "pe.badperm"
	case SiteMemLatency:
		return "mem.spike"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// Config describes a fault-injection campaign. The zero value (and a
// nil *Config) mean injection is disabled everywhere.
type Config struct {
	// Seed keys every injection decision; two runs with the same seed,
	// rate and labels inject identical fault sequences.
	Seed int64
	// Rate is the per-opportunity injection probability in [0, 1].
	// Zero disables injection even with a nonzero seed.
	Rate float64
	// MemSpikeCycles is the extra queueing delay added to a memory
	// request hit by SiteMemLatency (default 400 cycles).
	MemSpikeCycles uint64
}

// Validate reports an error unless Rate is a probability in [0, 1].
func (c *Config) Validate() error {
	if !(c.Rate >= 0 && c.Rate <= 1) {
		return fmt.Errorf("chaos: rate %g outside [0, 1]", c.Rate)
	}
	return nil
}

// Enabled reports whether this config injects anything.
func (c *Config) Enabled() bool {
	return c != nil && c.Rate > 0
}

// For derives the per-run injector for the run named by labels
// (typically algorithm, dataset, mode). Returns nil — disabled — when
// the config itself is nil or has Rate 0. The derivation folds each
// label into the seed, so distinct cells of a sweep draw independent,
// reproducible fault streams regardless of execution order.
func (c *Config) For(labels ...string) *Injector {
	if !c.Enabled() {
		return nil
	}
	state := uint64(c.Seed) ^ 0x9e3779b97f4a7c15
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			state = splitmix64(state ^ uint64(l[i]))
		}
		state = splitmix64(state ^ uint64(len(l)))
	}
	spike := c.MemSpikeCycles
	if spike == 0 {
		spike = 400
	}
	return &Injector{
		state: state,
		// Threshold comparison on the top 53 bits keeps Hit a single
		// integer compare per draw.
		threshold: uint64(c.Rate * (1 << 53)),
		spike:     spike,
	}
}

// Injector makes the injection decisions for one simulated run. It is
// NOT goroutine-safe — like the obs registry, each run owns its
// injector and runs single-goroutine. A nil *Injector is valid and
// means "never inject".
type Injector struct {
	state     uint64
	threshold uint64
	spike     uint64
	counts    [numSites]uint64
	tracer    *obs.Tracer
}

// splitmix64 is the SplitMix64 mixer; tiny state, excellent diffusion,
// and trivially reproducible across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (j *Injector) next() uint64 {
	j.state = splitmix64(j.state)
	return j.state
}

// Hit decides whether to inject at site, consuming exactly one draw.
// On a hit it bumps the site counter and emits a chaos trace event.
func (j *Injector) Hit(site Site) bool {
	if j == nil {
		return false
	}
	if j.next()>>11 >= j.threshold {
		return false
	}
	j.counts[site]++
	j.tracer.Emit(obs.CompChaos, obs.EvInject, 0, 0, uint64(site))
	return true
}

// HitAt is Hit with the faulting address attached to the trace event.
func (j *Injector) HitAt(site Site, va uint64) bool {
	if j == nil {
		return false
	}
	if j.next()>>11 >= j.threshold {
		return false
	}
	j.counts[site]++
	j.tracer.Emit(obs.CompChaos, obs.EvInject, va, 0, uint64(site))
	return true
}

// Draw returns a deterministic value in [0, n), consuming one draw.
// Callers use it to pick *which* corruption variant to simulate after
// Hit said "inject here".
func (j *Injector) Draw(n uint64) uint64 {
	if j == nil || n == 0 {
		return 0
	}
	return j.next() % n
}

// SpikeCycles is the configured memory-contention spike magnitude.
func (j *Injector) SpikeCycles() uint64 {
	if j == nil {
		return 0
	}
	return j.spike
}

// Count returns how many faults were injected at site so far.
func (j *Injector) Count(site Site) uint64 {
	if j == nil {
		return 0
	}
	return j.counts[site]
}

// Total returns the total injected-fault count across all sites.
func (j *Injector) Total() uint64 {
	if j == nil {
		return 0
	}
	var t uint64
	for _, c := range j.counts {
		t += c
	}
	return t
}

// SetTracer attaches a tracer; injected faults then emit
// chaos/inject events.
func (j *Injector) SetTracer(t *obs.Tracer) {
	if j != nil {
		j.tracer = t
	}
}

// Register publishes the per-site injection counters as chaos.<site>
// into the run's metrics registry, so fixed-seed campaigns can assert
// exact fault counts from the exported snapshot.
func (j *Injector) Register(reg *obs.Registry) {
	if j == nil || reg == nil {
		return
	}
	for s := Site(0); s < numSites; s++ {
		reg.RegisterCounter("chaos."+s.String(), &j.counts[s])
	}
}

// Package memsys models the shared memory system of the simulated
// heterogeneous machine: a multi-channel DDR4-style controller with
// line-interleaved channels, per-channel bandwidth occupancy and a fixed
// access latency.
//
// The model is deliberately simple — the paper's results (Figure 8/9)
// depend on the *relative* cost of page-walk memory references versus
// structure hits and on bandwidth contention between data fetches and
// walker traffic, not on DRAM page policy details. Every access occupies
// its channel for a burst (64 B at the channel's bandwidth) and completes
// after the queueing delay plus a fixed latency.
package memsys

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/chaos"
	"github.com/dvm-sim/dvm/internal/obs"
)

// LineBytes is the transfer granularity: one 64 B cache line.
const LineBytes = 64

// Config describes the memory system. The defaults mirror the paper's
// Table 2: 4 channels of DDR4 totalling 51.2 GB/s, driven at the
// accelerator's 1 GHz clock.
type Config struct {
	// Channels is the number of independent DRAM channels.
	Channels int
	// BurstCycles is the channel occupancy of one 64 B transfer.
	// 12.8 GB/s per channel at 1 GHz is 12.8 B/cycle, i.e. 5 cycles per
	// line.
	BurstCycles uint64
	// FixedLatencyCycles is the unloaded access latency (row access,
	// controller and interconnect), charged on top of queueing.
	FixedLatencyCycles uint64
	// InterleaveShift selects the address bit where channel interleaving
	// starts; lines are distributed round-robin across channels at this
	// granularity. Default: line granularity (6).
	InterleaveShift uint
}

// DefaultConfig returns the paper's memory configuration.
func DefaultConfig() Config {
	return Config{
		Channels:           4,
		BurstCycles:        5,
		FixedLatencyCycles: 50,
		InterleaveShift:    6,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Channels == 0 {
		c.Channels = d.Channels
	}
	if c.BurstCycles == 0 {
		c.BurstCycles = d.BurstCycles
	}
	if c.FixedLatencyCycles == 0 {
		c.FixedLatencyCycles = d.FixedLatencyCycles
	}
	if c.InterleaveShift == 0 {
		c.InterleaveShift = d.InterleaveShift
	}
	return c
}

// Controller is the memory controller. It is not safe for concurrent use.
type Controller struct {
	cfg       Config
	busyUntil []uint64 // per channel
	// chanMask strength-reduces the channel-select modulo when Channels
	// is a power of two (it is in the paper's Table 2 configuration);
	// chanMask < 0 keeps the general modulo for odd channel counts.
	chanMask int64
	accesses uint64
	waitSum  uint64
	// lat is the per-access completion-latency distribution in cycles
	// (queueing + burst + fixed latency + injected spikes). Simulated
	// time, so fully deterministic; observing is pure arithmetic on a
	// fixed-size field.
	lat obs.Histogram
	// inj, when non-nil, injects contention spikes into Access. Peek
	// never consults it: an estimate must not consume injector draws,
	// or estimating would perturb where real faults land.
	inj *chaos.Injector
}

// NewController creates a controller with the given configuration; zero
// fields take defaults.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("memsys: need at least one channel, got %d", cfg.Channels)
	}
	ctl := &Controller{cfg: cfg, busyUntil: make([]uint64, cfg.Channels), chanMask: -1}
	if cfg.Channels&(cfg.Channels-1) == 0 {
		ctl.chanMask = int64(cfg.Channels - 1)
	}
	return ctl, nil
}

// MustNewController is NewController that panics on error.
func MustNewController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the controller's configuration with defaults applied.
func (c *Controller) Config() Config { return c.cfg }

// channel returns the channel servicing pa.
func (c *Controller) channel(pa addr.PA) int {
	if c.chanMask >= 0 {
		return int((uint64(pa) >> c.cfg.InterleaveShift) & uint64(c.chanMask))
	}
	return int((uint64(pa) >> c.cfg.InterleaveShift) % uint64(c.cfg.Channels))
}

// timing computes the service timing of an access to pa at time `now`:
// the channel it lands on, the cycle its burst can begin (after any
// queued burst drains) and its completion time. Access and Peek both
// price through this one function, so the reserving and non-reserving
// models can never drift apart.
func (c *Controller) timing(pa addr.PA, now uint64) (ch int, start, done uint64) {
	ch = c.channel(pa)
	start = now
	if b := c.busyUntil[ch]; b > start {
		start = b
	}
	return ch, start, start + c.cfg.BurstCycles + c.cfg.FixedLatencyCycles
}

// Access issues a 64 B read or write of the line containing pa at time
// `now` (in cycles) and returns the completion time. The channel is
// occupied for BurstCycles; the data arrives FixedLatencyCycles after the
// burst begins.
func (c *Controller) Access(pa addr.PA, now uint64) uint64 {
	ch, start, done := c.timing(pa, now)
	// Hit is not inlinable: the nil check here keeps a run without
	// chaos from paying a call per access.
	if c.inj != nil && c.inj.Hit(chaos.SiteMemLatency) {
		// A contention spike: the request sits in the queue an extra
		// SpikeCycles before its burst begins, delaying this channel's
		// subsequent requests just like real interference would.
		spike := c.inj.SpikeCycles()
		start += spike
		done += spike
	}
	c.busyUntil[ch] = start + c.cfg.BurstCycles
	c.accesses++
	c.waitSum += start - now
	c.lat.Observe(done - now)
	return done
}

// SetChaos attaches a fault injector; nil (the default) disables
// injection at the cost of one inline nil check per access.
func (c *Controller) SetChaos(inj *chaos.Injector) { c.inj = inj }

// Peek returns the completion time an access to pa would observe at `now`
// without actually reserving channel bandwidth. Used by models that only
// need a latency estimate.
func (c *Controller) Peek(pa addr.PA, now uint64) uint64 {
	_, _, done := c.timing(pa, now)
	return done
}

// Reset clears channel state and statistics.
func (c *Controller) Reset() {
	for i := range c.busyUntil {
		c.busyUntil[i] = 0
	}
	c.accesses = 0
	c.waitSum = 0
	c.lat.Reset()
}

// RegisterMetrics publishes the controller's counters under prefix
// (e.g. "memsys" yields memsys.accesses / memsys.queue.cycles). The
// registry reads the fields Access already increments, so the memory
// hot path pays nothing. Snapshot() remains a thin view of the same
// storage.
func (c *Controller) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounter(prefix+".accesses", &c.accesses)
	reg.RegisterCounter(prefix+".queue.cycles", &c.waitSum)
	reg.RegisterHistogram(prefix+".latency.cycles", &c.lat)
}

// Stats reports aggregate controller activity.
type Stats struct {
	// Accesses is the number of line transfers serviced.
	Accesses uint64
	// BytesTransferred is Accesses * LineBytes.
	BytesTransferred uint64
	// AvgQueueCycles is the mean queueing delay per access.
	AvgQueueCycles float64
}

// Snapshot returns current statistics.
func (c *Controller) Snapshot() Stats {
	s := Stats{
		Accesses:         c.accesses,
		BytesTransferred: c.accesses * LineBytes,
	}
	if c.accesses > 0 {
		s.AvgQueueCycles = float64(c.waitSum) / float64(c.accesses)
	}
	return s
}

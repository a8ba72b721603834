// Package runner provides the generic experiment runner the reproduction
// harness fans its evaluation matrix out on: a bounded worker pool with
// deterministic result ordering, context-based cancellation on the first
// error, and a synchronized progress sink. The paper's figures and tables
// are matrices of independent simulations (workload × configuration), so
// cell-level parallelism changes wall-clock time, never results — results
// are always collected by cell index, not by completion order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dvm-sim/dvm/internal/obs"
)

// DefaultJobs resolves a jobs knob: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func DefaultJobs(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// Map runs fn(ctx, i) for every i in [0, n) using at most jobs concurrent
// workers and returns the n results in index order. jobs <= 0 uses
// runtime.GOMAXPROCS(0); jobs == 1 runs inline on the calling goroutine in
// strict index order, reproducing a plain sequential loop bit-for-bit
// (including stopping at the first error).
//
// With jobs > 1, the first error cancels the derived context so workers
// stop claiming new indices; in-flight calls are left to finish. When
// several workers fail concurrently, the error of the smallest index is
// returned, so the reported failure is deterministic across runs.
func Map[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapB(ctx, nil, jobs, n, fn)
}

// MapB is Map drawing its workers beyond the first from the shared
// Budget: one worker always runs (on its own goroutine, claiming cells
// in index order), and one extra worker is spawned per token available —
// up to jobs-1 — each returning its token when it runs out of cells, so
// tail-end tokens migrate to whatever still needs them (other artifacts,
// or parallel graph builds). A nil budget grants
// every requested worker, reproducing plain Map.
//
// Results are collected by cell index, never by completion order, so —
// like Map — the output is byte-identical at every jobs value and every
// budget population.
func MapB[T any](ctx context.Context, b *Budget, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return mapCells(ctx, Options{Jobs: jobs, Budget: b}, n, fn)
}

// mapCells is the worker-pool core shared by Map, MapB and MapOpts.
// Every cell runs through runCell, so panic isolation holds on every
// path: a panicking cell becomes a *CellError carrying its index and
// stack, the worker's budget-token release defer completes normally
// (no token is ever leaked by a failed, cancelled or panicking cell),
// and the remaining in-flight cells finish before the error returns.
func mapCells[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative cell count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	jobs := DefaultJobs(opts.Jobs)
	if jobs > n {
		jobs = n
	}
	b := opts.Budget
	extra := 0
	if jobs > 1 && b != nil {
		extra = b.TryAcquire(jobs - 1)
		jobs = 1 + extra
	}
	if jobs == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := runCell(ctx, opts, i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     int64 = -1 // atomically claimed cell index
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		// Workers beyond the first each hold one budget token; it goes
		// back to the pool the moment the worker finds no more cells.
		// runCell recovers cell panics, so this defer chain always
		// completes and the token always returns.
		borrowed := w > 0 && b != nil
		go func() {
			defer wg.Done()
			if borrowed {
				defer b.Release(1)
			}
			for {
				// Check for cancellation before claiming, never
				// after: claims go in index order, so a claimed cell
				// dropped here could be a smaller index than the
				// failure that cancelled the pool.
				if ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				r, err := runCell(ctx, opts, i, fn)
				if err != nil {
					mu.Lock()
					// A cell that fails with context.Canceled after
					// another cell's error cancelled the pool (and not
					// the caller) reports that cancellation, not a
					// failure of its own: it must not displace the
					// cause, whatever its index.
					echo := firstErr != nil && parent.Err() == nil && errors.Is(err, context.Canceled)
					if !echo && (firstIdx == -1 || i < firstIdx) {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// The parent context may have been cancelled with no cell failing; the
	// result slice is then incomplete and must not be used.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Logf is a printf-style progress callback; nil disables reporting.
type Logf func(format string, args ...interface{})

// Synchronized wraps fn behind a mutex so workers' progress lines never
// interleave mid-line. A nil fn stays nil (callers treat nil as disabled).
func Synchronized(fn Logf) Logf {
	if fn == nil {
		return nil
	}
	var mu sync.Mutex
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		fn(format, args...)
	}
}

// progressWindow is the sliding-window width of the ETA estimate: the
// extrapolation uses the rate of the last progressWindow completions
// only. Sweeps mixing cheap and expensive cells (tiny modes after a
// 1G build, small datasets before LJ) would whipsaw a global-mean ETA;
// the recent-rate estimate tracks the cost of the cells actually
// remaining.
const progressWindow = 32

// Progress is a live progress sink over a fixed number of cells: each
// Done call renders one "[done/total pct% eta]" prefixed line through
// the underlying Logf. It is goroutine-safe (workers report completion
// concurrently) and nil-safe, so callers with reporting disabled need
// no guards. The ETA extrapolates the mean per-cell time of the last
// progressWindow completions over the remaining cells (the global mean
// until that many cells have finished); it goes only to the
// human-facing sink and never into machine-readable output.
type Progress struct {
	mu    sync.Mutex
	logf  Logf
	total int
	done  int
	start time.Time
	// window is a ring of the most recent completion timestamps: slot
	// (k-1) % progressWindow holds the time of completion #k, for the
	// last progressWindow completions.
	window [progressWindow]time.Time
}

// NewProgress creates a progress sink for total cells; a nil logf
// returns nil (disabled).
func NewProgress(total int, logf Logf) *Progress {
	if logf == nil {
		return nil
	}
	return &Progress{logf: logf, total: total, start: time.Now()}
}

// eta extrapolates the remaining time at `now` from the completion
// rate of the sliding window. The reference point is the start time
// (treated as completion #0) until the ring fills, then the oldest
// retained completion; either way the divisor is the number of
// completion intervals the reference spans. The caller holds p.mu and
// guarantees done > 0 and left > 0.
func (p *Progress) eta(now time.Time, left int) time.Duration {
	ref := p.start
	intervals := p.done
	if p.done >= progressWindow {
		oldest := p.done - (progressWindow - 1)
		ref = p.window[(oldest-1)%progressWindow]
		intervals = progressWindow - 1
	}
	return time.Duration(int64(now.Sub(ref)) / int64(intervals) * int64(left))
}

// Done reports one completed cell with a formatted description. The
// sink runs outside the progress lock, so a slow (or blocked) sink can
// never stall a concurrent State probe — the daemon's status endpoint
// must stay live even when a log consumer wedges. The price is that
// two parallel completions may emit their lines out of order; wrap the
// sink with Synchronized when strict interleaving matters.
func (p *Progress) Done(format string, args ...interface{}) {
	if p == nil {
		return
	}
	now := time.Now()
	p.mu.Lock()
	p.done++
	p.window[(p.done-1)%progressWindow] = now
	prefix := fmt.Sprintf("[%d/%d", p.done, p.total)
	if p.total > 0 {
		prefix += fmt.Sprintf(" %2d%%", 100*p.done/p.total)
		if left := p.total - p.done; left > 0 {
			prefix += fmt.Sprintf(" eta %v", p.eta(now, left).Round(100*time.Millisecond))
		}
	}
	p.mu.Unlock()
	// The prefix contains literal '%' signs, so it must travel as an
	// argument, never as part of the format string.
	p.logf("%s] %s", prefix, fmt.Sprintf(format, args...))
}

// Count returns how many cells have been reported done.
func (p *Progress) Count() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

// ProgressState is a point-in-time view of a sweep's progress — what
// the /progress HTTP endpoint serves. Eta is zero when unknown (no
// cells done yet, or nothing left).
type ProgressState struct {
	Done    int
	Total   int
	Elapsed time.Duration
	Eta     time.Duration
}

// State returns the live progress view.
func (p *Progress) State() ProgressState {
	if p == nil {
		return ProgressState{}
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ProgressState{Done: p.done, Total: p.total, Elapsed: now.Sub(p.start)}
	if left := p.total - p.done; left > 0 && p.done > 0 {
		st.Eta = p.eta(now, left)
	}
	return st
}

// ProgressBoard publishes the current sweep's Progress so a concurrent
// reader (the /progress endpoint) can observe whichever artifact is
// running right now. All methods are goroutine-safe and nil-safe.
type ProgressBoard struct {
	mu  sync.Mutex
	cur *Progress
}

// Set installs the progress of the artifact starting now (nil clears).
func (b *ProgressBoard) Set(p *Progress) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.cur = p
	b.mu.Unlock()
}

// Current returns the most recently installed progress (may be nil).
func (b *ProgressBoard) Current() *Progress {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// Probe adapts the board to the obs HTTP surface: the returned function
// reports the current sweep's live state, or ok=false between sweeps.
func (b *ProgressBoard) Probe() func() (obs.ProgressState, bool) {
	return func() (obs.ProgressState, bool) {
		p := b.Current()
		if p == nil {
			return obs.ProgressState{}, false
		}
		st := p.State()
		out := obs.ProgressState{
			Done:           st.Done,
			Total:          st.Total,
			ElapsedSeconds: st.Elapsed.Seconds(),
			EtaSeconds:     st.Eta.Seconds(),
		}
		if st.Total > 0 {
			out.Percent = 100 * float64(st.Done) / float64(st.Total)
		}
		return out, true
	}
}

package runner

import "sync/atomic"

// Budget is the shared worker-token pool that makes one -j value govern
// *all* parallelism of a harness invocation. The paper harness has two
// nested levels of concurrency: cell-level workers (independent
// simulations of the evaluation matrix, fanned out by Map) and the
// parallel CSR build of workload preparation. Both draw "extra worker"
// tokens from the same Budget, so a -j 8 sweep never runs more than 8
// compute goroutines at once: when the matrix is wide the tokens are
// spent on cells, and a graph build that finds tokens free splits its
// counting sort across them. Each simulation itself runs on one
// goroutine.
//
// A Budget holds the number of *extra* workers beyond the calling
// goroutine: NewBudget(0) (or a nil *Budget) means strictly sequential
// execution everywhere, reproducing -j 1 bit-for-bit. Acquisition is
// non-blocking — callers that get no tokens run inline — so the pool can
// never deadlock, and because every simulation is deterministic
// regardless of worker count, how tokens happen to be distributed never
// changes any result, only wall-clock time.
type Budget struct {
	free atomic.Int64
	// parent, when non-nil, marks this Budget as a carved sub-pool
	// (see Carve): free then counts the sub-pool's remaining
	// *allowance*, and every token handed out is additionally acquired
	// from — and released back to — the parent chain, so a sub-pool can
	// never hold tokens its root pool does not have.
	parent *Budget
	// cap is the sub-pool's current allowance ceiling, tracked so
	// SetCap can adjust free by the delta (carved pools only).
	cap atomic.Int64
}

// NewBudget returns a pool of n extra-worker tokens (n <= 0 yields an
// always-empty pool, equivalent to a nil Budget).
func NewBudget(n int) *Budget {
	b := &Budget{}
	if n > 0 {
		b.free.Store(int64(n))
	}
	return b
}

// BudgetFor derives the extra-worker pool for a -j style jobs knob:
// DefaultJobs(jobs)-1 tokens, the caller's own goroutine being the
// remaining worker (so -j 1 gets an empty pool and -j 0 gets one token
// per CPU beyond the first).
func BudgetFor(jobs int) *Budget {
	return NewBudget(DefaultJobs(jobs) - 1)
}

// Carve returns a sub-pool drawing from b: at most cap of b's tokens
// can be outstanding through the sub-pool at once, however greedy its
// users are. This is the multi-tenant fair-share primitive of the
// service tier — each client's jobs share one carved sub-pool, so one
// tenant's wide sweep can saturate at most its cap while the other
// tenants' sub-pools still find the rest of the root pool. Carving
// reserves nothing: an idle sub-pool leaves the root untouched, and a
// capped tenant's unused share migrates to whoever asks. Carve on a
// nil Budget returns nil (strictly sequential everywhere).
func (b *Budget) Carve(cap int) *Budget {
	if b == nil {
		return nil
	}
	s := &Budget{parent: b}
	if cap > 0 {
		s.free.Store(int64(cap))
		s.cap.Store(int64(cap))
	}
	return s
}

// SetCap retargets a carved sub-pool's allowance ceiling (fair-share
// recomputation as tenants come and go). Shrinking below the tokens
// currently outstanding drives the allowance negative: no new tokens
// are handed out until enough outstanding ones come back, after which
// the pool tops out at the new cap. Calling SetCap on a root pool or a
// nil Budget is a no-op.
func (b *Budget) SetCap(cap int) {
	if b == nil || b.parent == nil {
		return
	}
	if cap < 0 {
		cap = 0
	}
	delta := int64(cap) - b.cap.Swap(int64(cap))
	b.free.Add(delta)
}

// TryAcquire grabs up to max tokens without blocking and returns how many
// it got (possibly zero). A nil Budget always returns zero. On a carved
// sub-pool the grab is bounded by both the sub-pool's remaining
// allowance and the parent chain's actual free tokens.
func (b *Budget) TryAcquire(max int) int {
	if b == nil || max <= 0 {
		return 0
	}
	n := b.takeFree(max)
	if b.parent != nil && n > 0 {
		got := b.parent.TryAcquire(n)
		if got < n {
			// Return the allowance the parent could not cover.
			b.free.Add(int64(n - got))
		}
		return got
	}
	return n
}

// takeFree claims up to max from this pool's own free counter.
func (b *Budget) takeFree(max int) int {
	for {
		cur := b.free.Load()
		if cur <= 0 {
			return 0
		}
		n := int64(max)
		if n > cur {
			n = cur
		}
		if b.free.CompareAndSwap(cur, cur-n) {
			return int(n)
		}
	}
}

// Release returns n previously acquired tokens to the pool. A nil Budget
// ignores the call (TryAcquire on nil never hands tokens out). Releasing
// to a carved sub-pool restores its allowance and returns the tokens up
// the parent chain.
func (b *Budget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	if b.parent != nil {
		b.parent.Release(n)
	}
	b.free.Add(int64(n))
}

// Free reports the tokens currently available (for tests and metrics).
func (b *Budget) Free() int {
	if b == nil {
		return 0
	}
	return int(b.free.Load())
}

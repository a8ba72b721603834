package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// CellError is the failure of one cell of a Map matrix. The
// runner guarantees every panic and every watchdog timeout surfaces as
// a *CellError naming the cell index, so a sweep failure always says
// which simulation broke — essential when a 105-cell sweep dies nine
// minutes in.
type CellError struct {
	// Index is the cell that failed.
	Index int
	// Err is the underlying failure (for panics, a synthesized error
	// carrying the panic value).
	Err error
	// Panicked reports that the cell panicked rather than returned.
	Panicked bool
	// Stack is the panicking goroutine's stack trace (nil unless
	// Panicked).
	Stack []byte
}

// Error implements error.
func (e *CellError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("runner: cell %d panicked: %v\n%s", e.Index, e.Err, e.Stack)
	}
	return fmt.Sprintf("runner: cell %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Options configures Map.
type Options struct {
	// Jobs bounds concurrent cells (<= 0: one per CPU).
	Jobs int
	// Budget is the shared extra-worker token pool (nil: every
	// requested worker runs).
	Budget *Budget
	// CellTimeout, when positive, puts every cell under a watchdog: a
	// cell running longer is abandoned and reported as a *CellError
	// wrapping context.DeadlineExceeded. The abandoned goroutine keeps
	// running until its context cancellation is noticed — the runner
	// cannot preempt it — but its result is discarded and its worker
	// slot moves on.
	CellTimeout time.Duration
}

// callCell invokes fn for one cell, converting a panic into a
// *CellError instead of letting it unwind the worker: one exploding
// cell fails the sweep with a precise report, rather than killing the
// process and every other in-flight cell's work. The recover also lets
// the worker's budget-token release defer complete normally.
func callCell[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (r T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &CellError{
				Index:    i,
				Err:      fmt.Errorf("%v", p),
				Panicked: true,
				Stack:    debug.Stack(),
			}
		}
	}()
	return fn(ctx, i)
}

// runCell executes cell i, under the watchdog when a CellTimeout is
// set. Cells run exactly once: a cell is a deterministic function of
// its inputs, so a retry would fail the same way again.
func runCell[T any](ctx context.Context, opts Options, i int, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	if opts.CellTimeout <= 0 {
		return callCell(ctx, i, fn)
	}
	cctx, cancel := context.WithTimeout(ctx, opts.CellTimeout)
	defer cancel()
	type outcome struct {
		r   T
		err error
	}
	// Buffered so an abandoned cell's late send never blocks its
	// goroutine forever.
	ch := make(chan outcome, 1)
	go func() {
		r, err := callCell(cctx, i, fn)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		return o.r, o.err
	case <-cctx.Done():
		var zero T
		if ctx.Err() != nil {
			// The sweep itself was cancelled; report that, not a
			// timeout.
			return zero, ctx.Err()
		}
		return zero, &CellError{
			Index: i,
			Err:   fmt.Errorf("cell exceeded %v watchdog: %w", opts.CellTimeout, context.DeadlineExceeded),
		}
	}
}

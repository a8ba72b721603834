package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// A panicking cell must surface as a *CellError naming the cell, with a
// stack, at every jobs level — never crash the process.
func TestChaosMapPanicIsolation(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			_, err := Map(context.Background(), Options{Jobs: jobs}, 16, func(_ context.Context, i int) (int, error) {
				if i == 7 {
					panic("simulated cell explosion")
				}
				return i, nil
			})
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *CellError", err, err)
			}
			if ce.Index != 7 || !ce.Panicked {
				t.Fatalf("CellError = index %d panicked %v, want 7/true", ce.Index, ce.Panicked)
			}
			if !strings.Contains(string(ce.Stack), "resilience_test") {
				t.Fatal("CellError.Stack does not reference the panicking frame")
			}
			if !strings.Contains(err.Error(), "cell 7") {
				t.Fatalf("error text %q does not name the cell", err.Error())
			}
		})
	}
}

// With several cells panicking concurrently, the smallest index wins —
// the reported failure is deterministic.
func TestChaosMapPanicSmallestIndexWins(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), Options{Jobs: 8}, 32, func(_ context.Context, i int) (int, error) {
			if i%3 == 2 { // cells 2, 5, 8, ...
				panic(i)
			}
			return i, nil
		})
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("trial %d: %v is not a *CellError", trial, err)
		}
		if ce.Index != 2 {
			t.Fatalf("trial %d: reported cell %d, want 2", trial, ce.Index)
		}
	}
}

// The watchdog converts a hung cell into a typed, cell-named timeout.
func TestChaosCellWatchdogTimeout(t *testing.T) {
	hung := make(chan struct{})
	defer close(hung)
	start := time.Now()
	_, err := Map(context.Background(), Options{Jobs: 2, CellTimeout: 30 * time.Millisecond}, 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				select {
				case <-hung: // never in this test
				case <-ctx.Done():
				}
			}
			return i, nil
		})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CellError", err)
	}
	if ce.Index != 1 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CellError = %v, want cell 1 wrapping DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// The budget-leak regression test: hammer Map's error, panic, timeout
// and cancellation paths concurrently and assert every borrowed token
// comes home. Run with -race.
func TestChaosBudgetNeverLeaksOnFailure(t *testing.T) {
	const tokens = 6
	b := NewBudget(tokens)
	scenarios := []func(trial int) error{
		func(trial int) error { // plain cell error
			_, err := Map(context.Background(), Options{Jobs: 4, Budget: b}, 24, func(_ context.Context, i int) (int, error) {
				if i == trial%24 {
					return 0, errors.New("boom")
				}
				return i, nil
			})
			return err
		},
		func(trial int) error { // panic
			_, err := Map(context.Background(), Options{Jobs: 4, Budget: b}, 24, func(_ context.Context, i int) (int, error) {
				if i == trial%24 {
					panic("boom")
				}
				return i, nil
			})
			return err
		},
		func(trial int) error { // cancellation mid-sweep
			ctx, cancel := context.WithCancel(context.Background())
			_, err := Map(ctx, Options{Jobs: 4, Budget: b}, 24, func(_ context.Context, i int) (int, error) {
				if i == trial%24 {
					cancel()
				}
				return i, nil
			})
			cancel()
			return err
		},
		func(trial int) error { // watchdog timeout
			_, err := Map(context.Background(),
				Options{Jobs: 4, Budget: b, CellTimeout: 5 * time.Millisecond}, 8,
				func(ctx context.Context, i int) (int, error) {
					if i == trial%8 {
						<-ctx.Done()
					}
					return i, nil
				})
			return err
		},
	}
	for trial := 0; trial < 40; trial++ {
		for si, scenario := range scenarios {
			if err := scenario(trial); err == nil && si != 2 {
				// Scenario 2 may legitimately complete all cells
				// before the cancel lands; the others must fail.
				t.Fatalf("trial %d scenario %d: expected an error", trial, si)
			}
		}
		if got := b.Free(); got != tokens {
			t.Fatalf("trial %d: budget leaked: %d/%d tokens free", trial, got, tokens)
		}
	}
}

// Nested Map panics propagate outward as CellErrors at each level and
// release both levels' tokens.
func TestChaosNestedMapBudgetOnPanic(t *testing.T) {
	const tokens = 4
	b := NewBudget(tokens)
	_, err := Map(context.Background(), Options{Jobs: 2, Budget: b}, 4, func(ctx context.Context, i int) (int, error) {
		inner, err := Map(ctx, Options{Jobs: 2, Budget: b}, 4, func(_ context.Context, j int) (int, error) {
			if i == 2 && j == 3 {
				panic("inner boom")
			}
			return j, nil
		})
		if err != nil {
			return 0, err
		}
		return inner[0], nil
	})
	var ce *CellError
	if !errors.As(err, &ce) || !ce.Panicked {
		t.Fatalf("err = %v, want a panicking *CellError", err)
	}
	if got := b.Free(); got != tokens {
		t.Fatalf("budget leaked across nesting: %d/%d free", got, tokens)
	}
}

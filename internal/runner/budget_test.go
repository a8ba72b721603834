package runner

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetBasics(t *testing.T) {
	b := NewBudget(3)
	if got := b.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) = %d, want 2", got)
	}
	if got := b.TryAcquire(5); got != 1 {
		t.Fatalf("TryAcquire(5) = %d, want the remaining 1", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty pool = %d, want 0", got)
	}
	b.Release(3)
	if got := b.Free(); got != 3 {
		t.Fatalf("Free() = %d after full release, want 3", got)
	}
	if got := b.TryAcquire(0); got != 0 {
		t.Fatalf("TryAcquire(0) = %d, want 0", got)
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if got := b.TryAcquire(4); got != 0 {
		t.Fatalf("nil TryAcquire = %d, want 0", got)
	}
	b.Release(2) // must not panic
	if got := b.Free(); got != 0 {
		t.Fatalf("nil Free = %d, want 0", got)
	}
}

func TestBudgetFor(t *testing.T) {
	if got := BudgetFor(8).Free(); got != 7 {
		t.Errorf("BudgetFor(8) = %d tokens, want 7", got)
	}
	if got := BudgetFor(1).Free(); got != 0 {
		t.Errorf("BudgetFor(1) = %d tokens, want 0", got)
	}
	if got := BudgetFor(0).Free(); got != DefaultJobs(0)-1 {
		t.Errorf("BudgetFor(0) = %d tokens, want GOMAXPROCS-1", got)
	}
}

// TestBudgetConservation hammers acquire/release from many goroutines and
// checks no tokens are ever minted or lost.
func TestBudgetConservation(t *testing.T) {
	const tokens = 7
	b := NewBudget(tokens)
	var inUse, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := b.TryAcquire(1 + (i+w)%3)
				if n == 0 {
					continue
				}
				cur := inUse.Add(int64(n))
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				inUse.Add(-int64(n))
				b.Release(n)
			}
		}(w)
	}
	wg.Wait()
	if got := b.Free(); got != tokens {
		t.Errorf("pool ends with %d tokens, want %d", got, tokens)
	}
	if m := maxSeen.Load(); m > tokens {
		t.Errorf("saw %d tokens in use at once, cap is %d", m, tokens)
	}
}

// TestMapBMatchesMap: Map with a Budget must produce byte-identical
// results to a sequential Map for any budget population, including an
// empty pool (inline sequential).
func TestMapBMatchesMap(t *testing.T) {
	ctx := context.Background()
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("cell-%02d", i*i), nil
	}
	want, err := Map(ctx, Options{Jobs: 1}, 20, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int{0, 1, 3, 50} {
		got, err := Map(ctx, Options{Jobs: 8, Budget: NewBudget(tokens)}, 20, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("budget %d: results diverge", tokens)
		}
	}
}

// TestMapBReleasesTokens: after Map returns, every borrowed token is back.
func TestMapBReleasesTokens(t *testing.T) {
	b := NewBudget(4)
	_, err := Map(context.Background(), Options{Jobs: 8, Budget: b}, 32, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Free(); got != 4 {
		t.Errorf("budget has %d tokens after Map, want 4", got)
	}
}

// TestMapBNestedSharing: nested Map calls drawing on one pool must never
// exceed the pool's worker cap (1 outer caller + tokens extras).
func TestMapBNestedSharing(t *testing.T) {
	const tokens = 3
	b := NewBudget(tokens)
	var running, maxSeen atomic.Int64
	body := func(ctx context.Context, _ int) (int, error) {
		cur := running.Add(1)
		for {
			m := maxSeen.Load()
			if cur <= m || maxSeen.CompareAndSwap(m, cur) {
				break
			}
		}
		for i := 0; i < 1000; i++ { // linger so overlaps are observable
			_ = i
		}
		running.Add(-1)
		return 0, nil
	}
	_, err := Map(context.Background(), Options{Jobs: 8, Budget: b}, 6, func(ctx context.Context, i int) (int, error) {
		_, err := Map(ctx, Options{Jobs: 8, Budget: b}, 10, body)
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worker ceiling: the caller plus one goroutine per token. (Inner
	// bodies run on outer workers, so outer workers don't add on top.)
	if m := maxSeen.Load(); m > tokens+1 {
		t.Errorf("saw %d concurrent bodies, cap is %d", m, tokens+1)
	}
	if got := b.Free(); got != tokens {
		t.Errorf("budget has %d tokens after nested Map, want %d", got, tokens)
	}
}

func TestBudgetCarveCapsOutstanding(t *testing.T) {
	root := NewBudget(8)
	sub := root.Carve(3)
	if got := sub.TryAcquire(10); got != 3 {
		t.Fatalf("carved TryAcquire(10) = %d, want cap 3", got)
	}
	if got := sub.TryAcquire(1); got != 0 {
		t.Fatalf("carved pool over cap handed out %d tokens", got)
	}
	// The other 5 root tokens stay reachable outside the sub-pool.
	if got := root.TryAcquire(8); got != 5 {
		t.Fatalf("root TryAcquire(8) = %d, want the remaining 5", got)
	}
	root.Release(5)
	sub.Release(1)
	if got := sub.TryAcquire(2); got != 1 {
		t.Fatalf("carved TryAcquire(2) after partial release = %d, want 1", got)
	}
	sub.Release(3)
	if got, want := root.Free(), 8; got != want {
		t.Fatalf("root Free() = %d after full release, want %d", got, want)
	}
	if got, want := sub.Free(), 3; got != want {
		t.Fatalf("carved Free() = %d after full release, want cap %d", got, want)
	}
}

func TestBudgetCarveBoundedByParent(t *testing.T) {
	root := NewBudget(2)
	sub := root.Carve(5)
	// Allowance 5, but the root only has 2 tokens; the unused allowance
	// must come back so a later grab can still use it.
	if got := sub.TryAcquire(5); got != 2 {
		t.Fatalf("carved TryAcquire(5) = %d, want parent's 2", got)
	}
	sub.Release(1) // one token comes back through the sub-pool
	if got := sub.TryAcquire(5); got != 1 {
		t.Fatalf("carved TryAcquire(5) = %d, want 1 (allowance restored)", got)
	}
	sub.Release(2)
	if got := root.Free(); got != 2 {
		t.Fatalf("root Free() = %d after full release, want 2", got)
	}
	if got := sub.Free(); got != 5 {
		t.Fatalf("carved Free() = %d after full release, want cap 5", got)
	}
}

func TestBudgetCarveSetCap(t *testing.T) {
	root := NewBudget(8)
	sub := root.Carve(4)
	if got := sub.TryAcquire(4); got != 4 {
		t.Fatalf("TryAcquire(4) = %d, want 4", got)
	}
	// Fair-share shrink below the outstanding 4: no new tokens until
	// enough come back.
	sub.SetCap(2)
	if got := sub.TryAcquire(1); got != 0 {
		t.Fatalf("shrunk pool handed out %d tokens with 4 outstanding", got)
	}
	sub.Release(2) // outstanding 2 == new cap; allowance back to 0
	if got := sub.TryAcquire(1); got != 0 {
		t.Fatalf("pool at cap handed out %d tokens", got)
	}
	sub.Release(1)
	if got := sub.TryAcquire(2); got != 1 {
		t.Fatalf("TryAcquire(2) under cap 2 with 1 outstanding = %d, want 1", got)
	}
	// Growing the cap frees allowance immediately.
	sub.SetCap(6)
	if got := sub.TryAcquire(8); got != 4 {
		t.Fatalf("TryAcquire(8) after growing cap = %d, want 4 (6 cap - 2 outstanding)", got)
	}
	// Root pools and nil pools ignore SetCap.
	root.SetCap(1)
	var nilB *Budget
	nilB.SetCap(3)
	if nilB.Carve(2) != nil {
		t.Fatal("Carve on nil Budget should return nil")
	}
}

func TestBudgetCarveConservation(t *testing.T) {
	const tokens, workers, iters = 4, 8, 2000
	root := NewBudget(tokens)
	subA, subB := root.Carve(2), root.Carve(3)
	var outstanding, maxSeen, maxA atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sub := subA
		tenantA := w%2 == 0
		if !tenantA {
			sub = subB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := sub.TryAcquire(1 + i%3)
				if n == 0 {
					continue
				}
				cur := outstanding.Add(int64(n))
				for {
					m := maxSeen.Load()
					if cur <= m || maxSeen.CompareAndSwap(m, cur) {
						break
					}
				}
				if tenantA {
					a := int64(n)
					for {
						m := maxA.Load()
						if a+m <= 2 {
							if maxA.CompareAndSwap(m, m+a) {
								break
							}
							continue
						}
						t.Errorf("tenant A holds %d tokens, cap 2", a+m)
						return
					}
					maxA.Add(-a)
				}
				outstanding.Add(-int64(n))
				sub.Release(n)
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got > tokens {
		t.Fatalf("outstanding tokens peaked at %d, root pool only has %d", got, tokens)
	}
	if got := root.Free(); got != tokens {
		t.Fatalf("root Free() = %d after all releases, want %d", got, tokens)
	}
}

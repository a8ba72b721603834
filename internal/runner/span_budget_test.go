package runner

import (
	"sync"
	"testing"

	"github.com/dvm-sim/dvm/internal/obs"
)

// TestSpanEmissionFromBudgetWorkers hammers concurrent span emission in
// the shape token-borrowing callers (MapB cells, parallel CSR builds)
// use it: each round, the caller acquires whatever extra-worker tokens
// the Budget will give, spawns a worker goroutine per token that opens
// and closes a span, and does one inline span itself. Run under -race in CI this exercises the
// recorder's locking; the assertions pin that no span is lost, tokens
// never leak, and lane assignment never exceeds the true concurrency
// bound (tokens + the calling goroutine).
func TestSpanEmissionFromBudgetWorkers(t *testing.T) {
	const tokens, rounds = 4, 25
	b := NewBudget(tokens)
	r := obs.NewSpanRecorder()
	want := 0
	for round := 0; round < rounds; round++ {
		got := b.TryAcquire(tokens)
		var wg sync.WaitGroup
		for w := 0; w < got; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer b.Release(1)
				sp := r.Begin("worker")
				for i := 0; i < 100; i++ {
					_ = i * i
				}
				sp.End()
			}()
		}
		sp := r.Begin("inline")
		sp.End()
		wg.Wait()
		want += got + 1
	}
	spans := r.Spans()
	if len(spans) != want {
		t.Fatalf("recorded %d spans, want %d", len(spans), want)
	}
	for _, s := range spans {
		if s.Worker < 0 || s.Worker > tokens {
			t.Fatalf("span on lane %d exceeds concurrency bound %d: %+v", s.Worker, tokens+1, s)
		}
	}
	if b.Free() != tokens {
		t.Fatalf("budget leaked: %d free, want %d", b.Free(), tokens)
	}
	if r.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans below capacity", r.Dropped())
	}
}

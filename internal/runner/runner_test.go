package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), Options{Jobs: jobs}, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(got) != 50 {
			t.Fatalf("jobs=%d: len = %d", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak int64
	var mu sync.Mutex
	_, err := Map(context.Background(), Options{Jobs: jobs}, 40, func(_ context.Context, i int) (struct{}, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		defer atomic.AddInt64(&inFlight, -1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > jobs {
		t.Errorf("peak concurrency %d exceeds jobs %d", peak, jobs)
	}
}

func TestMapReturnsSmallestIndexError(t *testing.T) {
	errs := map[int]error{3: errors.New("cell 3"), 7: errors.New("cell 7")}
	for _, jobs := range []int{1, 4} {
		var calls [10]atomic.Int64
		_, err := Map(context.Background(), Options{Jobs: jobs}, 10, func(_ context.Context, i int) (int, error) {
			calls[i].Add(1)
			if e, ok := errs[i]; ok {
				return 0, e
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: want error", jobs)
		}
		// Sequential stops at index 3; parallel must deterministically
		// prefer the smallest failing index among those it observed. With
		// every cell before 3 succeeding instantly, index 3's error must
		// win in both cases.
		if !errors.Is(err, errs[3]) {
			t.Errorf("jobs=%d: err = %q, want %q", jobs, err, "cell 3")
		}
		// Cells are deterministic, so none is ever re-run: the failing
		// cell ran exactly once, every other cell at most once.
		if n := calls[3].Load(); n != 1 {
			t.Errorf("jobs=%d: failing cell 3 ran %d times, want 1", jobs, n)
		}
		for i := range calls {
			if n := calls[i].Load(); n > 1 {
				t.Errorf("jobs=%d: cell %d ran %d times", jobs, i, n)
			}
		}
	}
}

func TestMapErrorCancelsRemainingWork(t *testing.T) {
	var started int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), Options{Jobs: 2}, 1000, func(ctx context.Context, i int) (int, error) {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := atomic.LoadInt64(&started); n == 1000 {
		t.Error("cancellation did not stop the pool from claiming every cell")
	}
}

func TestMapHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		_, err := Map(ctx, Options{Jobs: jobs}, 10, func(_ context.Context, i int) (int, error) {
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
	}
}

func TestMapZeroCells(t *testing.T) {
	got, err := Map(context.Background(), Options{Jobs: 4}, 0, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for empty matrix")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("got %v, %v; want empty, nil", got, err)
	}
}

func TestSynchronizedSerializesAndPreservesNil(t *testing.T) {
	if Synchronized(nil) != nil {
		t.Error("Synchronized(nil) should stay nil so callers can skip logging")
	}
	var lines []string
	logf := Synchronized(func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				logf("worker %d line %d", i, j)
			}
		}(i)
	}
	wg.Wait()
	if len(lines) != 800 {
		t.Errorf("lines = %d, want 800 (append raced)", len(lines))
	}
}

func TestProgressNilIsDisabled(t *testing.T) {
	if p := NewProgress(10, nil); p != nil {
		t.Fatal("nil logf must yield a nil (disabled) Progress")
	}
	var p *Progress
	p.Done("must not panic")
	if p.Count() != 0 {
		t.Error("nil Progress counted")
	}
}

func TestProgressPrefixAndPercentEscaping(t *testing.T) {
	var lines []string
	p := NewProgress(2, func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	p.Done("cell %s at %d%%", "a", 50)
	p.Done("cell b")
	if p.Count() != 2 {
		t.Fatalf("Count = %d, want 2", p.Count())
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	// The prefix's own '%' must never be re-interpreted as a verb, and
	// the message's verbs must be expanded exactly once.
	if want := "cell a at 50%"; len(lines[0]) == 0 || lines[0][0] != '[' || !strings.HasSuffix(lines[0], want) {
		t.Errorf("line 0 = %q, want [done/total ...] prefix + %q", lines[0], want)
	}
	if strings.Contains(lines[0], "!") || strings.Contains(lines[1], "!") {
		t.Errorf("format corruption in progress lines: %q / %q", lines[0], lines[1])
	}
	if !strings.Contains(lines[0], "[1/2 50%") || !strings.Contains(lines[1], "[2/2 100%") {
		t.Errorf("count/percent prefixes wrong: %q / %q", lines[0], lines[1])
	}
}

func TestProgressConcurrentDone(t *testing.T) {
	var mu sync.Mutex
	n := 0
	p := NewProgress(100, func(format string, args ...interface{}) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Done("x")
		}()
	}
	wg.Wait()
	if p.Count() != 100 || n != 100 {
		t.Errorf("Count = %d, lines = %d, want 100/100", p.Count(), n)
	}
}

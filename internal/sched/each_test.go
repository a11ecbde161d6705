package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"servet/internal/obs"
)

// TestEachDisjointSlots: every index runs exactly once and lands in
// its own slot, at any parallelism, including more workers than
// indices.
func TestEachDisjointSlots(t *testing.T) {
	for _, par := range []int{1, 2, 3, 8, 200} {
		const n = 100
		out := make([]int, n)
		var calls atomic.Int64
		err := Each(context.Background(), "t", n, par, func(_ context.Context, _, i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if calls.Load() != n {
			t.Fatalf("par %d: %d calls, want %d", par, calls.Load(), n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par %d: slot %d = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestEachEmpty: no indices means no calls and no error, even on a
// cancelled context.
func TestEachEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{0, -3} {
		err := Each(ctx, "t", n, 4, func(context.Context, int, int) error {
			t.Error("fn called with no indices")
			return nil
		})
		if err != nil {
			t.Errorf("n=%d: err = %v", n, err)
		}
	}
}

// TestEachSequentialInline: parallelism 1 (or less) runs every index
// on the calling goroutine, worker 0, in index order.
func TestEachSequentialInline(t *testing.T) {
	for _, par := range []int{1, 0, -2} {
		var order []int
		err := Each(context.Background(), "t", 10, par, func(_ context.Context, w, i int) error {
			if w != 0 {
				t.Errorf("par %d: worker %d, want 0", par, w)
			}
			order = append(order, i) // unsynchronized: the race detector proves it inline
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("par %d: order = %v", par, order)
			}
		}
		if len(order) != 10 {
			t.Fatalf("par %d: %d calls", par, len(order))
		}
	}
}

// TestEachWorkerNumbers: worker numbers stay below Workers(n, par) =
// min(par, n), so per-worker state sized with it is never overrun.
func TestEachWorkerNumbers(t *testing.T) {
	for _, c := range []struct{ n, par, want int }{
		{100, 4, 4}, {3, 8, 3}, {1, 8, 1}, {5, 0, 1}, {0, 4, 0},
	} {
		if got := Workers(c.n, c.par); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.par, got, c.want)
		}
		var maxW atomic.Int64
		maxW.Store(-1)
		err := Each(context.Background(), "t", c.n, c.par, func(_ context.Context, w, _ int) error {
			for {
				cur := maxW.Load()
				if int64(w) <= cur || maxW.CompareAndSwap(cur, int64(w)) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(maxW.Load()); got >= c.want {
			t.Errorf("n=%d par=%d: worker %d, want < %d", c.n, c.par, got, c.want)
		}
	}
}

// TestEachReturnsPlainError: fn's own error comes back unwrapped, so
// callers choose its type.
func TestEachReturnsPlainError(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		err := Each(context.Background(), "t", 20, par, func(_ context.Context, _, i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Errorf("par %d: err = %v, want the plain fn error", par, err)
		}
	}
}

// TestEachRootCauseNotMaskedByCasualty: a failure at a high index is
// reported even though a lower index came back cancelled — a casualty
// of the abort the failure caused. When the lower index fails for a
// reason of its own after the higher one, the lower index wins: the
// choice follows index order, not completion order.
func TestEachRootCauseNotMaskedByCasualty(t *testing.T) {
	boom, own := errors.New("boom"), errors.New("index 0 failed")
	for _, c := range []struct {
		index0 func(ctx context.Context) error
		want   error
	}{
		{func(ctx context.Context) error { return fmt.Errorf("index 0: %w", ctx.Err()) }, boom},
		{func(context.Context) error { return own }, own},
	} {
		err := Each(context.Background(), "t", 2, 2, func(ctx context.Context, _, i int) error {
			if i == 0 {
				<-ctx.Done() // released only by index 1's failure
				return c.index0(ctx)
			}
			return boom
		})
		if err != c.want {
			t.Errorf("err = %v, want the root cause %v", err, c.want)
		}
	}
}

// TestEachCallerCancellation: when the caller cancels, the plain ctx
// error comes back, not whatever wrapping fn put around it.
func TestEachCallerCancellation(t *testing.T) {
	for _, par := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		err := Each(ctx, "t", 50, par, func(ctx context.Context, _, i int) error {
			if i == 5 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("index %d: %w", i, err)
			}
			return nil
		})
		if err != context.Canceled {
			t.Errorf("par %d: err = %v, want the plain context.Canceled", par, err)
		}
		cancel()
	}
}

// TestEachNoIndexAfterFailure: once an index fails, no worker takes a
// new one. Index 1 blocks until the failure of index 0 cancels the
// context fn sees, so its worker is guaranteed to look for more work
// only after the failure.
func TestEachNoIndexAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var late atomic.Int64
	err := Each(context.Background(), "t", 100, 2, func(ctx context.Context, _, i int) error {
		switch i {
		case 0:
			return boom
		case 1:
			<-ctx.Done()
			return nil
		}
		late.Add(1)
		return nil
	})
	if err != boom {
		t.Errorf("err = %v, want %v", err, boom)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d indices started after the failure", n)
	}
}

// TestEachRecordsWorkerSpans: each worker records one "sched" span
// named "<name>:<w>", on the inline path too.
func TestEachRecordsWorkerSpans(t *testing.T) {
	for _, c := range []struct{ n, par int }{{10, 1}, {10, 3}, {2, 8}} {
		tracer := obs.New()
		ctx := obs.WithTracer(context.Background(), tracer)
		if err := Each(ctx, "s", c.n, c.par, func(context.Context, int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		counts := tracer.SpanCounts()
		workers := Workers(c.n, c.par)
		if len(counts) != workers {
			t.Errorf("n=%d par=%d: spans %v, want %d", c.n, c.par, counts, workers)
		}
		for w := range workers {
			if key := fmt.Sprintf("sched/s:%d", w); counts[key] != 1 {
				t.Errorf("n=%d par=%d: %s recorded %d times (%v)", c.n, c.par, key, counts[key], counts)
			}
		}
	}
}

// TestEachAllocsConstantInN: untraced, the allocations of one call do
// not grow with the number of indices.
func TestEachAllocsConstantInN(t *testing.T) {
	fn := func(context.Context, int, int) error { return nil }
	for _, par := range []int{1, 4} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				if err := Each(context.Background(), "t", n, par, fn); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(8), allocs(10000)
		if large > small {
			t.Errorf("par %d: %v allocs at n=10000 vs %v at n=8", par, large, small)
		}
	}
}

package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// assertShardedGolden is the one parallelism-parity harness every
// sharded-sweep golden uses: render the result at parallelism 1, then
// demand byte-identical renderings at 2, 4 and NumCPU. run must fold
// everything order-sensitive (including float probe-time sums) into
// its returned string.
func assertShardedGolden(t *testing.T, run func(parallelism int) string) {
	t.Helper()
	seq := run(1)
	for _, p := range []int{2, 4, runtime.NumCPU()} {
		if par := run(p); par != seq {
			t.Errorf("parallelism %d diverges from sequential:\nseq: %s\npar: %s", p, seq, par)
		}
	}
}

// TestSweepOrderedResults: measurements land in their own slots in
// index order at any parallelism, regardless of completion order.
func TestSweepOrderedResults(t *testing.T) {
	for _, parallelism := range []int{1, 3, 8} {
		out, err := sweep(context.Background(), "t", 100, parallelism, nil, func(_ struct{}, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("parallelism %d: %d results", parallelism, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", parallelism, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := sweep(context.Background(), "t", 0, 4, nil, func(_ struct{}, i int) (int, error) {
		t.Error("measure called on an empty sweep")
		return 0, nil
	})
	if out != nil || err != nil {
		t.Errorf("empty sweep = %v, %v", out, err)
	}
}

// TestSweepPropagatesMeasurementError: a failing measurement aborts
// the sweep and surfaces its own error, unwrapped — the same text an
// inline loop would have reported.
func TestSweepPropagatesMeasurementError(t *testing.T) {
	boom := errors.New("measurement 7 failed")
	_, err := sweep(context.Background(), "t", 20, 4, nil, func(_ struct{}, i int) (int, error) {
		if i == 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the measurement's own error", err)
	}
}

func TestSweepCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sweep(ctx, "t", 20, 4, nil, func(_ struct{}, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestSweepScratchSequentialReuse: at parallelism 1 exactly one
// scratch is built and threaded through every measurement, and every
// measurement still lands in its own slot.
func TestSweepScratchSequentialReuse(t *testing.T) {
	built := 0
	out, err := sweep(context.Background(), "t", 20, 1,
		func() *int { built++; v := 0; return &v },
		func(sc *int, i int) (int, error) {
			*sc++ // scratch is worker-private state
			return i * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Errorf("built %d scratches at parallelism 1, want 1", built)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("slot %d = %d, want %d", i, v, i*10)
		}
	}
}

// TestSweepScratchBoundedPool: a sweep builds at most one scratch per
// worker, min(parallelism, n), and results stay index-ordered.
func TestSweepScratchBoundedPool(t *testing.T) {
	var built atomic.Int32
	for _, c := range []struct{ n, parallelism int }{{100, 2}, {100, 4}, {100, 8}, {3, 8}} {
		n, parallelism := c.n, c.parallelism
		built.Store(0)
		out, err := sweep(context.Background(), "t", n, parallelism,
			func() *int32 { built.Add(1); v := int32(0); return &v },
			func(sc *int32, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got, max := built.Load(), int32(min(parallelism, n)); got < 1 || got > max {
			t.Errorf("parallelism %d: built %d scratches, want 1..%d", parallelism, got, max)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallelism %d: slot %d = %d, want %d", parallelism, i, v, i*i)
			}
		}
	}
}

// TestSweepScratchPropagatesError: errors come back unwrapped with a
// scratch too.
func TestSweepScratchPropagatesError(t *testing.T) {
	boom := errors.New("measurement 3 failed")
	_, err := sweep(context.Background(), "t", 10, 2,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the measurement's own error", err)
	}
}

// Package sched is the engine's one way to fan out work: Each, a
// parallel-for whose workers pull indices from a shared counter and
// write into disjoint slots. Every fan-out runs on it — the core
// measurement sweeps, the probe table's dependency waves, tune
// batches, servet.Sweep and the experiment fan-out — so output
// assembly is deterministic regardless of completion order.
package sched

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"servet/internal/obs"
)

// Workers is the number of workers Each starts for n indices at the
// given parallelism: min(parallelism, n), at least 1 (0 when n <= 0).
// Callers size their per-worker state with it.
func Workers(n, parallelism int) int {
	if n <= 0 {
		return 0
	}
	return min(max(parallelism, 1), n)
}

// Each calls fn(ctx, w, i) once for every index i in [0, n), unless a
// failure or cancellation stops it first, on Workers(n, parallelism)
// workers. Every worker pulls the next index
// from a shared counter, so a run of expensive indices spreads over
// all workers instead of stalling the one that owns them. w is the
// calling worker's number in [0, Workers(n, parallelism)): a worker
// calls fn sequentially, so callers keep per-worker scratch in a plain
// slice indexed by w. fn must write only state owned by index i (or
// by worker w); anything order-sensitive belongs in a sequential merge
// after Each returns. With one worker fn runs inline on the calling
// goroutine, in index order.
//
// The context is checked before every index. After the first failure
// no worker takes a new index, and the context fn sees is cancelled.
// The returned error is fn's own, unwrapped: the earliest-index
// failure that is not a cancellation, else the caller's ctx.Err(),
// else the earliest cancellation (see rootCause).
//
// Each worker records one "sched" span named "<name>:<w>" into the
// context's tracer.
func Each(ctx context.Context, name string, n, parallelism int, fn func(ctx context.Context, w, i int) error) error {
	workers := Workers(n, parallelism)
	if workers == 0 {
		return nil
	}
	tr := obs.FromContext(ctx)
	// fails holds each worker's failure: a worker stops at its first.
	type failure struct {
		i   int
		err error
	}
	fails := make([]failure, workers)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	work := func(w int) {
		if tr != nil {
			sp := tr.Start("sched", name+":"+strconv.Itoa(w))
			defer sp.End()
		}
		for runCtx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(runCtx, w, i); err != nil {
				fails[w] = failure{i, err}
				cancel()
				return
			}
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	slices.SortFunc(fails, func(a, b failure) int { return cmp.Compare(a.i, b.i) })
	return rootCause(ctx, workers, func(k int) error { return fails[k].err })
}

// rootCause picks the error that explains a fan-out over n indexed
// units, whose failures errAt reports in index order (nil for units
// that succeeded or never ran). When a unit fails, the fan-out
// cancels its shared context and in-flight ctx-honoring units come
// back with context.Canceled — those are consequences, as is any
// failure caused by the caller cancelling ctx. So the root cause is
// the earliest failure that is not a cancellation; failing that, the
// caller's ctx.Err(); failing that, the earliest cancellation-shaped
// failure.
func rootCause(ctx context.Context, n int, errAt func(i int) error) error {
	var firstCancelled error
	for i := 0; i < n; i++ {
		err := errAt(i)
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancelled == nil {
				firstCancelled = err
			}
			continue
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstCancelled
}

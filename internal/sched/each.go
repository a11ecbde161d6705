package sched

import (
	"cmp"
	"context"
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
// The returned error is fn's own, unwrapped, chosen as Run chooses:
// the earliest-index failure that is not a cancellation, else the
// caller's ctx.Err(), else the earliest cancellation.
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
	_, err := rootCause(ctx, workers, func(k int) error { return fails[k].err })
	return err
}

package core

import (
	"context"

	"servet/internal/obs"
	"servet/internal/sched"
)

// This file is the suite's sweep helper. Every O(n) or O(n²)
// measurement loop inside a probe — the communication-costs pair
// sweep, the shared-cache (level, pair) sweep, the memory-overhead
// pair sweep, the mcalibrator size grid — runs through the same
// two-step idiom:
//
//  1. measure: sweep fans the measurement indices over sched.Each,
//     whose workers pull the next index from a shared counter (so the
//     expensive tail of a level-major sweep spreads over every worker)
//     and write raw measurements into the disjoint slots of a shared
//     result slice;
//  2. merge: the caller walks the slots sequentially in index order,
//     doing everything order-sensitive there — probe-cost accounting
//     (a float sum), noise perturbation (stateless per measurement),
//     clustering and derived curves.
//
// Because workers only ever produce slot i from measurement i — with
// per-measurement state (noise, memory-system instances) derived from
// stable keys, never from execution order — the merged result is
// byte-identical at any Options.Parallelism.

// sweep runs measure(scratch, i) for every i in [0, n) over
// sched.Each and returns the measurements in index order. Each worker
// that measures builds one scratch with newScratch (nil means the zero
// S) at its first index and reuses it for every index it pulls; the
// pooled-instance sweeps use it to reset one memsys.Instance in place
// between measurements instead of rebuilding it per index.
//
// Which worker measures which index depends on timing, so a scratch
// must carry no state a measurement observes: measure must fully
// re-derive everything from its stable keys (for pooled instances,
// ResetAt's bitwise-equivalence contract guarantees exactly that).
// measure runs concurrently up to parallelism; a measurement error (or
// cancellation) aborts the sweep and is returned unwrapped, exactly as
// an inline loop would have reported it.
func sweep[T, S any](ctx context.Context, name string, n, parallelism int, newScratch func() S, measure func(scratch S, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	// One "sweep" span per worker that measured, named after the sweep
	// and running from its first measurement to the end of the sweep,
	// so per-sweep totals aggregate in the summary (nil tracer when
	// untraced); sched.Each's own per-worker spans show when each
	// worker ran out of indices.
	tr := obs.FromContext(ctx)
	type worker struct {
		scratch  S
		span     obs.Span
		measured int64
	}
	workers := make([]worker, sched.Workers(n, parallelism))
	err := sched.Each(ctx, name, n, parallelism, func(_ context.Context, w, i int) error {
		wk := &workers[w]
		if wk.measured == 0 {
			wk.span = tr.Start("sweep", name)
			if newScratch != nil {
				wk.scratch = newScratch()
			}
			tr.Count(obs.CounterScratchFresh, 1)
		}
		v, err := measure(wk.scratch, i)
		if err != nil {
			return err
		}
		out[i] = v
		wk.measured++
		return nil
	})
	for _, wk := range workers {
		wk.span.End()
		tr.Count(obs.CounterSweepMeasurements, wk.measured)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

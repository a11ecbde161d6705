// Package floatmerge exercises the concurrent-float-merge analyzer.
package floatmerge

import (
	"context"

	"servet/internal/sched"
)

func goStmt() float64 {
	var total float64
	done := make(chan struct{})
	go func() {
		total += 1.5 // want `float accumulation into captured "total" inside a go statement`
		close(done)
	}()
	<-done
	return total
}

func schedArg(ctx context.Context) (float64, error) {
	var acc float64
	err := sched.Go(ctx, func(ctx context.Context) error {
		acc -= 0.5 // want `float accumulation into captured "acc" inside a sched-scheduled closure`
		return nil
	})
	return acc, err
}

func eachAccumulates(ctx context.Context, xs []float64) (float64, error) {
	var total float64
	err := sched.Each(ctx, "sum", len(xs), 4, func(ctx context.Context, w, i int) error {
		total += xs[i] // want `float accumulation into captured "total" inside a sched-scheduled closure`
		return nil
	})
	return total, err
}

func eachSubtracts(ctx context.Context, xs []float64) (float64, error) {
	var total float64
	err := sched.Each(ctx, "diff", len(xs), 4, func(ctx context.Context, w, i int) error {
		total = total - xs[i] // want `float accumulation into captured "total" inside a sched-scheduled closure`
		return nil
	})
	return total, err
}

// eachSlots is the blessed discipline under sched.Each: each index
// writes its own slot, and the caller merges in index order.
func eachSlots(ctx context.Context, xs []float64) (float64, error) {
	out := make([]float64, len(xs))
	err := sched.Each(ctx, "scale", len(xs), 4, func(ctx context.Context, w, i int) error {
		out[i] = 2 * xs[i]
		return nil
	})
	var total float64
	for _, v := range out {
		total += v
	}
	return total, err
}

// sweepOK is the blessed discipline: accumulate locally, then write
// into a disjoint slot of the shared slice.
func sweepOK() []float64 {
	slots := make([]float64, 4)
	done := make(chan struct{})
	go func() {
		var local float64
		local += 3
		slots[0] = local
		close(done)
	}()
	<-done
	return slots
}

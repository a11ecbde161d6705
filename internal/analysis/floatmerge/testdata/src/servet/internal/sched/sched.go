// Package sched is a fixture stub of servet/internal/sched: just
// enough surface for floatmerge's entry-point checks.
package sched

import "context"

// Each calls fn for every index (the parallel-for entry point).
func Each(ctx context.Context, name string, n, parallelism int, fn func(ctx context.Context, w, i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(ctx, 0, i); err != nil {
			return err
		}
	}
	return nil
}

// Go runs one closure (a direct-closure entry point).
func Go(ctx context.Context, fn func(ctx context.Context) error) error {
	return fn(ctx)
}

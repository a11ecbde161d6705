package core

import (
	"context"
	"testing"

	"servet/internal/topology"
)

// Benchmarks for the mcalibrator size-grid sweep — the probe whose
// inner traversals dominate single-measurement wall-clock and the
// second headline target of the memsys fast path (alongside
// BenchmarkCommCostsPairSweep*). Dempsey keeps one grid pass in the
// tens of milliseconds, so `make bench` stays cheap while the ns/op
// trajectory in BENCH_*.json remains comparable across PRs.
func benchMcalibratorGrid(b *testing.B, parallelism int) {
	b.Helper()
	m := topology.Dempsey()
	opt := Options{Seed: 1, Parallelism: parallelism}
	for i := 0; i < b.N; i++ {
		cal, err := Mcalibrator(context.Background(), m, 0, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(cal.Sizes) == 0 {
			b.Fatal("empty calibration")
		}
	}
}

func BenchmarkMcalibratorGridSeq(b *testing.B)  { benchMcalibratorGrid(b, 1) }
func BenchmarkMcalibratorGridPar4(b *testing.B) { benchMcalibratorGrid(b, 4) }

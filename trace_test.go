package servet_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"servet"
	"servet/internal/experiments"
	"servet/internal/obs"
)

// marshalZeroedReport strips the report's wall-clock fields — stage
// wall times and provenance timestamps, the only parts documented as
// nondeterministic — and marshals the rest.
func marshalZeroedReport(t *testing.T, rep *servet.Report) string {
	t.Helper()
	cp := *rep
	cp.Timings = append([]servet.StageTiming(nil), rep.Timings...)
	for i := range cp.Timings {
		cp.Timings[i].Wall = 0
	}
	cp.Provenance = append([]servet.ProbeProvenance(nil), rep.Provenance...)
	for i := range cp.Provenance {
		cp.Provenance[i].Timestamp = time.Time{}
		cp.Provenance[i].Wall = 0
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// traceSessionOpts are the quick suite options every parity run below
// shares.
func traceSessionOpts(par int) []servet.Option {
	return []servet.Option{
		servet.WithOptions(servet.Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096, 65536}}),
		servet.WithParallelism(par),
	}
}

// TestTracingDoesNotPerturbReports pins the zero-perturbation
// contract of internal/obs: a traced run produces a byte-identical
// report to an untraced one, at parallelism 1, 2, 4 and NumCPU — and
// the tracer really did observe the run (spans and counters are
// non-empty), so the parity is not vacuous.
func TestTracingDoesNotPerturbReports(t *testing.T) {
	var want string
	for _, par := range []int{1, 2, 4, runtime.NumCPU()} {
		run := func(ctx context.Context) *servet.Report {
			s, err := servet.NewSession(servet.Dempsey(), traceSessionOpts(par)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(ctx)
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			return rep
		}

		plain := marshalZeroedReport(t, run(context.Background()))

		tracer := obs.New()
		traced := marshalZeroedReport(t, run(obs.WithTracer(context.Background(), tracer)))

		if traced != plain {
			t.Fatalf("parallelism %d: tracing perturbed the report\n traced: %s\nuntraced: %s", par, traced, plain)
		}
		if want == "" {
			want = plain
		} else if plain != want {
			t.Fatalf("parallelism %d: report diverged from parallelism 1", par)
		}

		// The parity must not be vacuous: the tracer saw the probes, the
		// sweeps and the scheduler.
		counts := tracer.SpanCounts()
		if counts["probe/cache-size"] == 0 || counts["session/run"] != 1 {
			t.Errorf("parallelism %d: tracer missed spans: %v", par, counts)
		}
		if tracer.Counter(obs.CounterSweepMeasurements) == 0 {
			t.Errorf("parallelism %d: no sweep measurements counted", par)
		}
		if tracer.Counter(obs.CounterMemsysFresh) == 0 {
			t.Errorf("parallelism %d: no memsys instances counted", par)
		}
	}
}

// TestTracingDoesNotPerturbTunes is the same contract for the tune
// engine: traced and untraced searches return byte-identical results
// (wall-clock provenance zeroed, as documented) at every parallelism,
// while the tracer records rounds and evaluations.
func TestTracingDoesNotPerturbTunes(t *testing.T) {
	rep := tuneGoldenReport(t, 0)
	space := servet.TuneSpace{Axes: []servet.TuneAxis{
		servet.Pow2Axis("tile", 4, 128),
	}}
	obj := servet.ObjectiveFunc("parity", func(ctx context.Context, r *servet.Report, sp *servet.TuneSpace, cfg servet.TuneConfig) (float64, error) {
		tile, err := sp.Int(cfg, "tile")
		if err != nil {
			return 0, err
		}
		return float64((tile - 32) * (tile - 32)), nil
	})

	tuneAt := func(ctx context.Context, par int) string {
		res, err := servet.Tune(ctx, rep, space, obj,
			servet.TuneStrategy("anneal"), servet.TuneSeed(9), servet.TuneBudget(16),
			servet.TuneParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return marshalZeroed(t, res)
	}

	var want string
	for _, par := range []int{1, 2, 4, runtime.NumCPU()} {
		plain := tuneAt(context.Background(), par)
		tracer := obs.New()
		traced := tuneAt(obs.WithTracer(context.Background(), tracer), par)
		if traced != plain {
			t.Fatalf("parallelism %d: tracing perturbed the tune\n traced: %s\nuntraced: %s", par, traced, plain)
		}
		if want == "" {
			want = plain
		} else if plain != want {
			t.Fatalf("parallelism %d: tune diverged from parallelism 1", par)
		}
		if tracer.SpanCounts()["tune/round:0"] != 1 {
			t.Errorf("parallelism %d: tracer missed the search rounds: %v", par, tracer.SpanCounts())
		}
		if tracer.Counter(obs.CounterTuneEvaluations) == 0 {
			t.Errorf("parallelism %d: no evaluations counted", par)
		}
	}
}

// TestTracerHotPathAllocationFree pins the disabled-tracing cost on
// the engine hot path at zero allocations: the nil-tracer calls the
// sweeps make per measurement must never show up in the allocation
// gate of the benchmark suite.
func TestTracerHotPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	if avg := testing.AllocsPerRun(1000, func() {
		tr := obs.FromContext(ctx)
		sp := tr.Start("sweep", "mcal")
		tr.Count(obs.CounterMemsysReset, 1)
		tr.Count(obs.CounterSweepMeasurements, 4)
		sp.End()
	}); avg != 0 {
		t.Fatalf("nil-tracer hot path allocates %g allocs/op, want 0", avg)
	}
}

// TestContextReachesExperimentsAndSingleOps: figure generation and
// the single-benchmark session calls run under the caller's context —
// a tracer attached to it records the generator's sweeps, and a
// cancelled context aborts the call with context.Canceled.
func TestContextReachesExperimentsAndSingleOps(t *testing.T) {
	tracer := obs.New()
	ctx := obs.WithTracer(context.Background(), tracer)
	if _, err := experiments.Run(ctx, "fig2a", experiments.Opt{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if n := tracer.SpanCounts()["sweep/mcal"]; n == 0 {
		t.Errorf("fig2a recorded no sweep/mcal spans: %v", tracer.SpanCounts())
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := servet.NewSession(servet.TLBBox(), servet.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.DetectCaches(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("Session.DetectCaches err = %v, want context.Canceled", err)
	}
	if _, _, err := s.DetectTLB(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("Session.DetectTLB err = %v, want context.Canceled", err)
	}
	if _, err := experiments.Run(cancelled, "fig2a", experiments.Opt{Seed: 1, Quick: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("experiments.Run err = %v, want context.Canceled", err)
	}
}

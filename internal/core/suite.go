package core

import (
	"context"
	"fmt"
	"time"

	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/sched"
	"servet/internal/topology"
)

// Suite runs Servet probes on a machine and assembles the
// install-time report. Probes come from the package's probe table; the
// engine runs them in dependency waves, each wave concurrently when
// Options.Parallelism allows, and merges their results in table order
// so the report is identical regardless of completion order.
type Suite struct {
	m   *topology.Machine
	opt Options
}

// NewSuite validates the machine and prepares a suite with the given
// options.
func NewSuite(m *topology.Machine, opt Options) (*Suite, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Suite{m: m, opt: opt.withDefaults(m)}, nil
}

// Machine returns the machine under test.
func (s *Suite) Machine() *topology.Machine { return s.m }

// Options returns the effective (default-filled) options.
func (s *Suite) Options() Options { return s.opt }

// CalibrateCores runs the Fig. 1 calibration loop on each of the given
// node-local cores (no cores means all of them), fanning the per-core
// runs over sched.Each under Options.Parallelism. Each measurement
// builds its own memory-system instance from stable keys — exactly
// what Mcalibrator does per call — so the results are identical to a
// sequential per-core loop at any parallelism.
// Calibrations come back in the order the cores were given.
func (s *Suite) CalibrateCores(ctx context.Context, cores ...int) ([]Calibration, error) {
	if len(cores) == 0 {
		cores = make([]int, s.m.CoresPerNode)
		for i := range cores {
			cores[i] = i
		}
	}
	for _, c := range cores {
		if c < 0 || c >= s.m.CoresPerNode {
			return nil, fmt.Errorf("core: calibrate core %d: machine %s has %d cores per node", c, s.m.Name, s.m.CoresPerNode)
		}
	}
	cals := make([]Calibration, len(cores))
	err := sched.Each(ctx, "calibrate", len(cores), s.opt.Parallelism, func(ctx context.Context, _, i int) error {
		cal, err := Mcalibrator(ctx, s.m, cores[i], s.opt)
		cals[i] = cal
		return err
	})
	if err != nil {
		return nil, err
	}
	return cals, nil
}

// Run executes the named probes plus their transitive dependencies
// (no names means DefaultProbes) and merges the results into one
// report. Probes run in dependency waves, a wave's probes concurrently
// up to Options.Parallelism. A probe failure ends the run after its
// wave and is returned as a *ProbeError (the earliest in table order
// when several probes fail); cancelling the context aborts the run.
//
// cached, when non-nil, is a previously saved report of the same
// machine. In one pass over the probe table (see plan) each probe of
// the closure whose cached section is still fresh is restored instead
// of executed, and cached sections of probes outside the closure that
// are still consistent with this run are carried along, so a subset
// re-run narrows neither the report nor the entry it is saved to.
// Sections merge, and Timings and Provenance rows are emitted, in
// canonical order whatever their source. Restored and carried rows
// keep their original measurement timestamp and wall cost; "ran" rows
// carry a zero Timestamp for the caller to stamp, which keeps this
// package free of wall-clock reads.
func (s *Suite) Run(ctx context.Context, cached *report.Report, names ...string) (*report.Report, error) {
	steps, err := s.plan(cached, names)
	if err != nil {
		return nil, err
	}

	env := &Env{Machine: s.m, Opt: s.opt, outs: make([]*Partial, len(probes))}
	// A probe that runs goes in the wave after the latest of its
	// dependencies that run too; restored dependencies are done before
	// the first wave. Table order is topological, so one pass does it.
	wave := make([]int, len(probes))
	var waves [][]int
	restored, ran := 0, 0
	for i, st := range steps {
		switch st.act {
		case actRestore:
			env.outs[i] = &steps[i].part
			restored++
		case actRun:
			for _, d := range probes[i].Deps() {
				if j := probeIndex(d); steps[j].act == actRun {
					wave[i] = max(wave[i], wave[j]+1)
				}
			}
			if wave[i] == len(waves) {
				waves = append(waves, nil)
			}
			waves[wave[i]] = append(waves[wave[i]], i)
			ran++
		}
	}

	// A cancelled run fails even when nothing is left to execute.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Probe spans record into the context's tracer (nil when the run
	// is untraced): one "probe" span per executed probe, so a trace
	// shows which stages dominated the run. A failed wave ends the
	// run, so dependents of a failed probe never start.
	tr := obs.FromContext(ctx)
	walls := make([]time.Duration, len(probes))
	for _, w := range waves {
		err := sched.Each(ctx, "probes", len(w), s.opt.Parallelism, func(ctx context.Context, _, k int) error {
			i := w[k]
			sp := tr.Start("probe", probes[i].Name())
			defer sp.End()
			t0 := time.Now() //servet:wallclock — probe wall-time provenance (report Timings), never a measurement input
			part, err := probes[i].Run(ctx, env)
			walls[i] = time.Since(t0) //servet:wallclock
			if err != nil {
				return &ProbeError{Probe: probes[i].Name(), Err: err}
			}
			env.outs[i] = &part
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	tr.Count(obs.CounterProbesRestored, int64(restored))
	tr.Count(obs.CounterProbesRan, int64(ran))

	r := &report.Report{
		Machine:      s.m.Name,
		ClockGHz:     s.m.ClockGHz,
		Nodes:        s.m.Nodes,
		CoresPerNode: s.m.CoresPerNode,
	}
	for i, st := range steps {
		if st.act == actSkip {
			continue
		}
		// Restored and carried sections keep a Table I row with zero
		// wall time; their provenance keeps the original cost.
		part, row, wall := st.part, st.row, time.Duration(0)
		if st.act == actRun {
			part, wall = *env.outs[i], walls[i]
			row.Wall = wall
		}
		if part.Apply != nil {
			part.Apply(r)
		}
		r.Timings = append(r.Timings, report.StageTiming{
			Stage:          row.Probe,
			Wall:           wall,
			SimulatedProbe: part.SimulatedProbe,
		})
		r.Provenance = append(r.Provenance, row)
	}
	return r, nil
}

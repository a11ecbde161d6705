package core

import (
	"context"
	"errors"
	"fmt"

	"servet/internal/obs"
	"servet/internal/report"
	"servet/internal/sched"
	"servet/internal/topology"
)

// Suite runs Servet probes on a machine and assembles the
// install-time report. Probes come from the package registry; the
// engine schedules them over their dependency DAG, concurrently when
// Options.Parallelism allows, and merges their results in
// registration order so the report is identical regardless of
// completion order.
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

// RunProbes executes the named probes plus their transitive
// dependencies (no names means DefaultProbes). Independent probes run
// concurrently up to Options.Parallelism; results merge into the
// report in registration order, with one StageTiming per executed
// probe. A probe failure is returned as a *ProbeError; cancelling the
// context aborts the run.
func (s *Suite) RunProbes(ctx context.Context, names ...string) (*report.Report, error) {
	r, _, err := s.RunSeeded(ctx, nil, names...)
	return r, err
}

// RunSeeded is RunProbes with precomputed partials: probes named in
// seeded (typically restored from a cache via Restore) are not
// executed — their partial goes straight into the environment, where
// it both satisfies dependents and merges into the report in the
// usual canonical order. Only the remaining probes are scheduled.
// executed lists the probes that actually ran, in canonical order;
// seeded probes keep a Table I timing row with zero wall time.
func (s *Suite) RunSeeded(ctx context.Context, seeded map[string]Partial, names ...string) (_ *report.Report, executed []string, _ error) {
	if len(names) == 0 {
		names = DefaultProbes()
	}
	probes, err := probeClosure(names)
	if err != nil {
		return nil, nil, err
	}

	env := newEnv(s.m, s.opt)
	runs := make(map[string]bool, len(probes))
	for _, p := range probes {
		name := p.Name()
		if part, ok := seeded[name]; ok {
			env.put(name, part)
		} else {
			runs[name] = true
		}
	}

	// Probe spans record into the context's tracer (nil when the run
	// is untraced): one "probe" span per executed probe, so a trace
	// shows which stages dominated the run.
	tr := obs.FromContext(ctx)

	var tasks []sched.Task
	taskIdx := make(map[string]int, len(runs))
	for _, p := range probes {
		if !runs[p.Name()] {
			continue
		}
		p := p
		// Seeded dependencies are already satisfied; the scheduler only
		// needs the edges between probes that actually run.
		var deps []string
		for _, d := range p.Deps() {
			if runs[d] {
				deps = append(deps, d)
			}
		}
		taskIdx[p.Name()] = len(tasks)
		tasks = append(tasks, sched.Task{
			Name: p.Name(),
			Deps: deps,
			Run: func(ctx context.Context) error {
				sp := tr.Start("probe", p.Name())
				part, err := p.Run(ctx, env)
				sp.End()
				if err != nil {
					return err
				}
				env.put(p.Name(), part)
				return nil
			},
		})
	}

	results, err := sched.Run(ctx, tasks, s.opt.Parallelism)
	if err != nil {
		var te *sched.TaskError
		if errors.As(err, &te) {
			return nil, nil, &ProbeError{Probe: te.Name, Err: te.Err}
		}
		return nil, nil, err
	}

	r := &report.Report{
		Machine:      s.m.Name,
		ClockGHz:     s.m.ClockGHz,
		Nodes:        s.m.Nodes,
		CoresPerNode: s.m.CoresPerNode,
	}
	for _, p := range probes {
		name := p.Name()
		part, _ := env.Output(name)
		if part.Apply != nil {
			part.Apply(r)
		}
		timing := report.StageTiming{
			Stage:          name,
			SimulatedProbe: part.SimulatedProbe,
		}
		if runs[name] {
			timing.Wall = results[taskIdx[name]].Wall
			executed = append(executed, name)
		}
		r.Timings = append(r.Timings, timing)
	}
	return r, executed, nil
}

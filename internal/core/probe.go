package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

// Probe is one benchmark of the suite. Probes declare the probes
// they depend on by name; the engine runs them in dependency waves
// (concurrently within a wave when Options.Parallelism allows) and
// merges their Partials into the final report in table order, so the
// assembled report does not depend on completion order. The
// unexported methods keep the set closed: the probe table below is
// the whole suite.
type Probe interface {
	// Name identifies the probe ("cache-size", ...). Names are unique
	// across the table.
	Name() string
	// Deps names the probes whose outputs this probe consumes. They
	// are guaranteed to have completed before Run is called.
	Deps() []string
	// Run executes the probe against the environment's machine. The
	// context is cancelled when the engine aborts the run.
	Run(ctx context.Context, env *Env) (Partial, error)
	// scope returns the effective option fields the probe's
	// measurements depend on, as a plain JSON-marshalable value: two
	// option sets with equal scopes produce identical results, so the
	// scope's digest is the cache key that invalidates only the probes
	// an option change affects.
	scope(opt Options) any
	// restore rebuilds the probe's Partial (report section plus the
	// Value dependents consume) from a saved report; ok is false when
	// the report lacks the section. SimulatedProbe is left for the
	// engine to recover from the report's timing row.
	restore(r *report.Report) (Partial, bool)
}

// Partial is one probe's contribution to the final report.
type Partial struct {
	// Apply merges the probe's results into the report. Apply
	// functions are invoked sequentially in table order after
	// every probe has completed; they never run concurrently. Nil
	// means the probe contributes only its timing.
	Apply func(r *report.Report)
	// SimulatedProbe is the virtual time the probe's measurements
	// consumed on the simulated machine (the Table I analogue).
	SimulatedProbe time.Duration
	// Value is the probe's typed output, available to dependent
	// probes through Env.Output.
	Value any
}

// Env is the shared environment a probe run executes in: the machine
// under test, the effective options, and the outputs of completed
// probes.
type Env struct {
	// Machine is the machine under test. Probes must treat it as
	// read-only: probes run concurrently.
	Machine *topology.Machine
	// Opt holds the effective (default-filled) options.
	Opt Options

	// outs holds completed probes' Partials by table position: each
	// slot is written once, by its probe's worker or before the first
	// wave for a restored probe.
	outs []*Partial
}

// Output returns the Partial of a completed probe the caller names in
// its Deps. Those finished in an earlier wave; any other probe may
// still be running in the caller's wave, so reading it is a race.
func (e *Env) Output(name string) (Partial, bool) {
	i := probeIndex(name)
	if i < 0 || e.outs[i] == nil {
		return Partial{}, false
	}
	return *e.outs[i], true
}

// CacheLevels returns the cache levels detected by the cache-size
// probe. It fails when the cache-size probe has not completed, which
// means the calling probe forgot to declare it in Deps.
func (e *Env) CacheLevels() ([]DetectedCache, error) {
	p, ok := e.Output(probeCacheSize)
	if !ok {
		return nil, fmt.Errorf("core: probe %s has not completed (missing dependency?)", probeCacheSize)
	}
	out, ok := p.Value.(cacheSizeOutput)
	if !ok {
		return nil, fmt.Errorf("core: probe %s produced %T, want cache levels", probeCacheSize, p.Value)
	}
	return out.levels, nil
}

// NoCacheLevelsError reports that the cache-size probe found no cache
// levels on a machine, so probes that need the detected L1 size (the
// communication-costs message size) cannot run.
type NoCacheLevelsError struct {
	// Machine is the model name the detection ran on.
	Machine string
}

func (e *NoCacheLevelsError) Error() string {
	return fmt.Sprintf("core: no cache levels detected on %s", e.Machine)
}

// ProbeError wraps a probe failure with the probe's name. When
// several probes fail in one run, the engine reports the one earliest
// in table order.
type ProbeError struct {
	// Probe is the failing probe's name.
	Probe string
	// Err is the probe's own error.
	Err error
}

// Error omits a "core:" prefix: the wrapped probe error carries one.
func (e *ProbeError) Error() string { return fmt.Sprintf("probe %s: %v", e.Probe, e.Err) }
func (e *ProbeError) Unwrap() error { return e.Err }

// UnknownProbeError reports a request for a probe name that is not in
// the probe table.
type UnknownProbeError struct {
	// Name is the unknown probe name.
	Name string
	// Known lists the probe names.
	Known []string
}

func (e *UnknownProbeError) Error() string {
	return fmt.Sprintf("core: unknown probe %q (have %s)", e.Name, strings.Join(e.Known, ", "))
}

// Canonical probe names.
const (
	probeCacheSize = "cache-size"
	probeShared    = "shared-caches"
	probeMemory    = "memory-overhead"
	probeComm      = "communication-costs"
	probeTLB       = "tlb"
)

// probes is the suite, in canonical order: the paper's four stages
// (Sections III-A to III-D) plus the TLB extension. The engine merges
// Partials and emits timing and provenance rows in this order, so a
// probe's dependencies are listed before it — the order is
// topological and an Apply can build on what its dependencies merged.
var probes = []Probe{
	cacheSizeProbe{},
	sharedCachesProbe{},
	memoryOverheadProbe{},
	commCostsProbe{},
	tlbProbe{},
}

func init() {
	if err := checkProbeTable(probes); err != nil {
		panic(err)
	}
}

// checkProbeTable enforces what the merge order relies on: probe names
// are non-empty and unique, and every dependency is listed before its
// dependent.
func checkProbeTable(ps []Probe) error {
	seen := map[string]bool{}
	for _, p := range ps {
		name := p.Name()
		if name == "" {
			return fmt.Errorf("core: probe table: probe with empty name")
		}
		if seen[name] {
			return fmt.Errorf("core: probe table: duplicate probe %q", name)
		}
		for _, d := range p.Deps() {
			if !seen[d] {
				return fmt.Errorf("core: probe table: probe %q depends on %q, which is not listed before it", name, d)
			}
		}
		seen[name] = true
	}
	return nil
}

// ProbeNames lists every probe in canonical order.
func ProbeNames() []string {
	names := make([]string, len(probes))
	for i, p := range probes {
		names[i] = p.Name()
	}
	return names
}

// DefaultProbes lists the four paper benchmarks in the paper's order.
// The TLB extension probe is in the table but not part of the default
// suite, matching the paper's Table I.
func DefaultProbes() []string {
	return []string{probeCacheSize, probeShared, probeMemory, probeComm}
}

// probeClosure expands names (empty means DefaultProbes) to the
// requested probes plus their transitive dependencies, as a set of
// names.
func probeClosure(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		names = DefaultProbes()
	}
	want := map[string]bool{}
	var expand func(name string) error
	expand = func(name string) error {
		if want[name] {
			return nil
		}
		i := probeIndex(name)
		if i < 0 {
			return &UnknownProbeError{Name: name, Known: ProbeNames()}
		}
		want[name] = true
		for _, d := range probes[i].Deps() {
			if err := expand(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range names {
		if err := expand(name); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// probeIndex returns the table index of the named probe, or -1.
func probeIndex(name string) int {
	for i, p := range probes {
		if p.Name() == name {
			return i
		}
	}
	return -1
}

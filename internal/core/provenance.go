package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"servet/internal/report"
)

// Probe-result reuse: per-probe option digests decide whether a saved
// section is still valid, and each probe's restore rebuilds its
// Partial from a saved report, so a cached probe never has to
// execute. plan makes the whole decision for one run.

// action is what a run does with one probe of the table.
type action int

const (
	// actSkip: outside the closure and not carried.
	actSkip action = iota
	// actRun: in the closure and executed.
	actRun
	// actRestore: in the closure, restored from the cached report.
	actRestore
	// actCarry: outside the closure, carried over from the cached
	// report because it is still consistent with this run.
	actCarry
)

// step is one probe's part in a run, aligned with the probe table.
type step struct {
	act action
	// same marks a section dependents may rely on as unchanged: a
	// closure probe whose cached digest equals this run's (probes are
	// deterministic, so it reproduces the cached output whether it is
	// restored or run), or a carried leftover.
	same bool
	// part is the restored or carried Partial; a run probe's comes
	// from its execution.
	part Partial
	// row is the provenance row the run emits; a run probe's Wall and
	// Timestamp are filled in later.
	row report.ProbeProvenance
}

// plan decides, in one pass over the probe table in canonical (hence
// topological) order, what a run of names against cached does with
// each probe. It executes nothing. A closure probe is restored when
// its cached section carries this run's options digest and every
// dependency was restored too; otherwise it runs. A probe outside the
// closure is carried when its cached section exists and every
// dependency it was measured against is unchanged (same); a stale
// leftover is dropped, so its provenance row disappears and a later
// run re-measures it.
func (s *Suite) plan(cached *report.Report, names []string) ([]step, error) {
	want, err := probeClosure(names)
	if err != nil {
		return nil, err
	}
	steps := make([]step, len(probes))
	depsAll := func(p Probe, ok func(step) bool) bool {
		for _, d := range p.Deps() {
			if !ok(steps[probeIndex(d)]) {
				return false
			}
		}
		return true
	}
	for i, p := range probes {
		name := p.Name()
		var prov *report.ProbeProvenance
		if cached != nil {
			prov = cached.ProvenanceFor(name)
		}
		if !want[name] {
			if prov == nil || !depsAll(p, func(d step) bool { return d.same }) {
				continue
			}
			if part, ok := restorePartial(p, cached); ok {
				steps[i] = step{act: actCarry, same: true, part: part, row: cachedRow(prov)}
			}
			continue
		}
		digest, err := s.digest(p)
		if err != nil {
			return nil, err
		}
		same := prov != nil && prov.OptionsDigest == digest
		steps[i] = step{act: actRun, same: same, row: report.ProbeProvenance{
			Probe: name, Status: report.ProvenanceRan, OptionsDigest: digest,
		}}
		if !same || !depsAll(p, func(d step) bool { return d.act == actRestore }) {
			continue
		}
		if part, ok := restorePartial(p, cached); ok {
			steps[i] = step{act: actRestore, same: true, part: part, row: cachedRow(prov)}
		}
	}
	return steps, nil
}

// cachedRow is the provenance row of a reused section: it keeps the
// digest, measurement time and wall cost of the run that produced it.
func cachedRow(prov *report.ProbeProvenance) report.ProbeProvenance {
	row := *prov
	row.Status = report.ProvenanceCached
	return row
}

// restorePartial rebuilds p's Partial from a saved report, recovering
// SimulatedProbe from the report's timing row so reused sections keep
// their Table I entries.
func restorePartial(p Probe, r *report.Report) (Partial, bool) {
	part, ok := p.restore(r)
	if !ok {
		return Partial{}, false
	}
	for _, tm := range r.Timings {
		if tm.Stage == p.Name() {
			part.SimulatedProbe = tm.SimulatedProbe
		}
	}
	return part, true
}

// digest returns the digest of the effective option fields p's
// measurements depend on.
func (s *Suite) digest(p Probe) (string, error) {
	data, err := json.Marshal(struct {
		Probe string
		Scope any
	}{p.Name(), p.scope(s.opt)})
	if err != nil {
		return "", fmt.Errorf("core: digest %s: %w", p.Name(), err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"servet/internal/report"
	"servet/internal/topology"
)

func TestOptionsDigestScopesProbes(t *testing.T) {
	m := topology.Dempsey()
	base, err := NewSuite(m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(s *Suite, p Probe) string {
		t.Helper()
		d, err := s.digest(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Zero options and explicitly spelled defaults digest identically:
	// digests are computed on the effective options.
	spelled, err := NewSuite(m, Options{Seed: 1, CommReps: 25, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if a, b := digest(base, p), digest(spelled, p); a != b {
			t.Errorf("%s: default-filled digests differ: %s vs %s", p.Name(), a, b)
		}
	}

	// Changing a communication option invalidates only the
	// communication probe.
	tweaked, err := NewSuite(m, Options{Seed: 1, CommReps: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		a, b := digest(base, p), digest(tweaked, p)
		if p.Name() == "communication-costs" {
			if a == b {
				t.Errorf("%s: CommReps change did not alter digest", p.Name())
			}
		} else if a != b {
			t.Errorf("%s: CommReps change leaked into digest", p.Name())
		}
	}

	// The seed feeds every probe's measurements.
	reseeded, err := NewSuite(m, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if digest(base, p) == digest(reseeded, p) {
			t.Errorf("%s: seed change did not alter digest", p.Name())
		}
	}

	if _, err := base.plan(nil, []string{"no-such-probe"}); err == nil {
		t.Error("unknown probe planned")
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	// Allocations 2 halves the shared-cache sweep's averaging work;
	// the round trip compares a run against its own restoration, so
	// detection-grade sampling is not needed.
	s, err := NewSuite(topology.Dunnington(), Options{Seed: 1, CommReps: 2, Allocations: 2, BWSizes: []int64{4096, 65536}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Run(context.Background(), nil, "cache-size", "shared-caches", "memory-overhead", "communication-costs", "tlb")
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range probes {
		name := p.Name()
		part, ok := restorePartial(p, fresh)
		if !ok {
			t.Fatalf("probe %s not restorable from its own report", name)
		}
		if part.SimulatedProbe != timingFor(fresh, name) {
			t.Errorf("%s: restored simulated time %v, want %v", name, part.SimulatedProbe, timingFor(fresh, name))
		}
	}

	restored, err := s.Run(context.Background(), fresh, ProbeNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if executed := ranProbes(restored); len(executed) != 0 {
		t.Errorf("fully cached run executed %v", executed)
	}
	if len(restored.Caches) != len(fresh.Caches) ||
		restored.Caches[1].SizeBytes != fresh.Caches[1].SizeBytes ||
		len(restored.Caches[1].SharedGroups) != len(fresh.Caches[1].SharedGroups) {
		t.Errorf("caches diverge:\nfresh %+v\nrestored %+v", fresh.Caches, restored.Caches)
	}
	if restored.Memory.RefBandwidthGBs != fresh.Memory.RefBandwidthGBs ||
		len(restored.Memory.Levels) != len(fresh.Memory.Levels) {
		t.Errorf("memory diverges")
	}
	if restored.Comm.MessageBytes != fresh.Comm.MessageBytes ||
		len(restored.Comm.Layers) != len(fresh.Comm.Layers) {
		t.Errorf("comm diverges")
	}
	if len(restored.Timings) != len(fresh.Timings) {
		t.Errorf("timings: %d vs %d rows", len(restored.Timings), len(fresh.Timings))
	}
}

// TestRunPartiallyCachedExecutesRest: a cached report whose only
// provenance row is the cache-size probe's restores just that probe,
// which still satisfies its dependents; they execute and produce the
// same sections as a fresh run.
func TestRunPartiallyCachedExecutesRest(t *testing.T) {
	opt := Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096}}
	s, err := NewSuite(topology.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := fresh.Clone()
	cached.Provenance = []report.ProbeProvenance{*fresh.ProvenanceFor("cache-size")}
	rep, err := s.Run(context.Background(), cached)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shared-caches", "memory-overhead", "communication-costs"}
	executed := ranProbes(rep)
	if len(executed) != len(want) {
		t.Fatalf("executed = %v, want %v", executed, want)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("executed = %v, want %v", executed, want)
		}
	}
	if rep.Comm.MessageBytes != fresh.Comm.MessageBytes {
		t.Errorf("dependent probe did not see restored L1: %d vs %d",
			rep.Comm.MessageBytes, fresh.Comm.MessageBytes)
	}
}

// FuzzRestorePlan feeds arbitrary bytes, decoded as a report, to the
// planning half of Suite.Run as the cached report: a cache entry read
// from a directory or a registry is outside input. Planning must not
// panic, closure probes must run or be restored (never dropped), and
// every reused section must rest on dependencies this run restores,
// carries or schedules. The seed corpus under testdata/fuzz holds a
// real quick Dempsey report and one with a tampered digest.
func FuzzRestorePlan(f *testing.F) {
	// The quick options a session applies (servet.WithQuick), so the
	// seed report's digests match and its sections restore.
	s, err := NewSuite(topology.Dempsey(), Options{Seed: 1, CommReps: 2, Allocations: 2,
		BWSizes: []int64{4 << 10, 64 << 10, 1 << 20}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cached report.Report
		if json.Unmarshal(data, &cached) != nil {
			return
		}
		for _, names := range [][]string{nil, {"tlb"}, {"shared-caches"}, ProbeNames()} {
			want, err := probeClosure(names)
			if err != nil {
				t.Fatal(err)
			}
			steps, err := s.plan(&cached, names)
			if err != nil {
				t.Fatalf("plan %v: %v", names, err)
			}
			for i, st := range steps {
				name := probes[i].Name()
				inClosure := st.act == actRun || st.act == actRestore
				if inClosure != want[name] {
					t.Errorf("plan %v: %s action %d, in closure %v", names, name, st.act, want[name])
				}
				if st.act != actRestore && st.act != actCarry {
					continue
				}
				for _, d := range probes[i].Deps() {
					if steps[probeIndex(d)].act == actSkip {
						t.Errorf("plan %v: %s reused without its dependency %s", names, name, d)
					}
				}
			}
		}
	})
}

// ranProbes lists the probes a run executed, in provenance order.
func ranProbes(r *report.Report) []string {
	var out []string
	for _, p := range r.Provenance {
		if p.Status == report.ProvenanceRan {
			out = append(out, p.Probe)
		}
	}
	return out
}

// timingFor returns the simulated-probe time of one stage row.
func timingFor(r *report.Report, name string) time.Duration {
	for _, tm := range r.Timings {
		if tm.Stage == name {
			return tm.SimulatedProbe
		}
	}
	return 0
}

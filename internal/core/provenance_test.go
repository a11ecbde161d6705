package core

import (
	"context"
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
	// Zero options and explicitly spelled defaults digest identically:
	// digests are computed on the effective options.
	spelled, err := NewSuite(m, Options{Seed: 1, CommReps: 25, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ProbeNames() {
		a, err := base.OptionsDigest(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spelled.OptionsDigest(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: default-filled digests differ: %s vs %s", name, a, b)
		}
	}

	// Changing a communication option invalidates only the
	// communication probe.
	tweaked, err := NewSuite(m, Options{Seed: 1, CommReps: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ProbeNames() {
		a, _ := base.OptionsDigest(name)
		b, _ := tweaked.OptionsDigest(name)
		if name == "communication-costs" {
			if a == b {
				t.Errorf("%s: CommReps change did not alter digest", name)
			}
		} else if a != b {
			t.Errorf("%s: CommReps change leaked into digest", name)
		}
	}

	// The seed feeds every probe's measurements.
	reseeded, err := NewSuite(m, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ProbeNames() {
		a, _ := base.OptionsDigest(name)
		b, _ := reseeded.OptionsDigest(name)
		if a == b {
			t.Errorf("%s: seed change did not alter digest", name)
		}
	}

	if _, err := base.OptionsDigest("no-such-probe"); err == nil {
		t.Error("unknown probe digested")
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
	fresh, err := s.RunProbes(context.Background(), "cache-size", "shared-caches", "memory-overhead", "communication-costs", "tlb")
	if err != nil {
		t.Fatal(err)
	}

	seeded := map[string]Partial{}
	for _, name := range ProbeNames() {
		part, ok := Restore(name, fresh)
		if !ok {
			t.Fatalf("probe %s not restorable from its own report", name)
		}
		if part.SimulatedProbe != timingFor(fresh, name) {
			t.Errorf("%s: restored simulated time %v, want %v", name, part.SimulatedProbe, timingFor(fresh, name))
		}
		seeded[name] = part
	}

	restored, executed, err := s.RunSeeded(context.Background(), seeded, ProbeNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 {
		t.Errorf("fully seeded run executed %v", executed)
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

// TestRunSeededPartialExecutesRest: seeding only the cache-size probe
// still satisfies its dependents, which execute and produce the same
// sections as a fresh run.
func TestRunSeededPartialExecutesRest(t *testing.T) {
	opt := Options{Seed: 1, CommReps: 2, BWSizes: []int64{4096}}
	s, err := NewSuite(topology.Dempsey(), opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.RunProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	part, ok := Restore("cache-size", fresh)
	if !ok {
		t.Fatal("cache-size not restorable")
	}
	rep, executed, err := s.RunSeeded(context.Background(), map[string]Partial{"cache-size": part})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"shared-caches", "memory-overhead", "communication-costs"}
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

// timingFor returns the simulated-probe time of one stage row.
func timingFor(r *report.Report, name string) time.Duration {
	for _, tm := range r.Timings {
		if tm.Stage == name {
			return tm.SimulatedProbe
		}
	}
	return 0
}

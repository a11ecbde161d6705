package autotune

import (
	"context"
	"testing"

	"servet/internal/core"
	"servet/internal/mpisim"
	"servet/internal/report"
	"servet/internal/topology"
)

// ftReport characterizes a 2-node Finis Terrae once for the collective
// tests.
func ftReport(t *testing.T) *report.Report {
	t.Helper()
	m := topology.FinisTerrae(2)
	comm, _, err := core.CommunicationCosts(context.Background(), m, 16*topology.KB, core.Options{
		Seed: 1, CommReps: 2,
		BWSizes: []int64{1 * topology.KB, 4 * topology.KB, 64 * topology.KB, 512 * topology.KB},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &report.Report{Machine: m.Name, Nodes: 2, CoresPerNode: 16, Comm: comm}
}

// measureBcast runs both broadcast algorithms on the first n cores of
// the machine and returns their makespans in ns.
func measureBcast(t *testing.T, m *topology.Machine, n int, bytes int64, cores []int) (tree, flat int64) {
	t.Helper()
	run := func(useFlat bool) int64 {
		elapsed, err := mpisim.Run(m, n, cores, func(r *mpisim.Rank) {
			if useFlat {
				r.BcastFlat(0, bytes)
			} else {
				r.Bcast(0, bytes)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	return run(false), run(true)
}

func TestChooseBcastTreeWinsOnLargeNetworkComm(t *testing.T) {
	if testing.Short() {
		t.Skip("pairwise sweep")
	}
	rep := ftReport(t)
	layer, err := LayerByName(rep, "network")
	if err != nil {
		t.Fatal(err)
	}
	choice, err := ChooseBcast(layer, 16, 16*topology.KB)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Algorithm != "binomial-tree" {
		t.Errorf("advice = %s (tree %.1f us, flat %.1f us), want binomial-tree",
			choice.Algorithm, choice.TreeUS, choice.FlatUS)
	}
	// Validate against measurement: 16 ranks spread across both nodes.
	m := topology.FinisTerrae(2)
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = (i%2)*16 + i/2 // alternate nodes: every tree edge crosses IB
	}
	tree, flat := measureBcast(t, m, 16, 16*topology.KB, cores)
	if tree >= flat {
		t.Errorf("measured: tree %d ns not faster than flat %d ns", tree, flat)
	}
}

func TestChooseBcastFlatWinsOnSmallShmComm(t *testing.T) {
	if testing.Short() {
		t.Skip("pairwise sweep")
	}
	rep := ftReport(t)
	layer, err := LayerByName(rep, "intra-node")
	if err != nil {
		t.Fatal(err)
	}
	choice, err := ChooseBcast(layer, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Algorithm != "flat" {
		t.Errorf("advice = %s (tree %.2f us, flat %.2f us), want flat",
			choice.Algorithm, choice.TreeUS, choice.FlatUS)
	}
	// Validate: 4 ranks on one node, 128-byte payload.
	m := topology.FinisTerrae(2)
	tree, flat := measureBcast(t, m, 4, 128, []int{0, 1, 2, 3})
	if flat >= tree {
		t.Errorf("measured: flat %d ns not faster than tree %d ns", flat, tree)
	}
}

func TestChooseBcastErrors(t *testing.T) {
	layer := &report.CommLayer{LatencyUS: 5}
	if _, err := ChooseBcast(layer, 1, 1024); err == nil {
		t.Error("1-rank broadcast accepted")
	}
	// No bandwidth sweep: falls back to the layer latency.
	choice, err := ChooseBcast(layer, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if choice.TreeUS <= 0 || choice.FlatUS < 0 {
		t.Errorf("degenerate times: %+v", choice)
	}
}

func TestLatencyForSizeBelowSweep(t *testing.T) {
	layer := &report.CommLayer{
		LatencyUS: 99,
		Bandwidth: []report.BWPoint{
			{Bytes: 1000, OneWayUS: 11},
			{Bytes: 2000, OneWayUS: 12},
		},
	}
	// Below the sweep the first segment's slope (1us/1000B) continues:
	// zero-size = 10us, and the curve is continuous at the first point.
	if got := LatencyForSize(layer, 0); got != 10 {
		t.Errorf("LatencyForSize(0) = %g, want 10", got)
	}
	if got := LatencyForSize(layer, 500); got != 10.5 {
		t.Errorf("LatencyForSize(500) = %g, want 10.5", got)
	}
	if got := LatencyForSize(layer, 1000); got != 11 {
		t.Errorf("LatencyForSize(1000) = %g, want 11 (continuity at the first point)", got)
	}
	// A steep first segment extrapolates negative: clamps to zero.
	layer.Bandwidth[0].OneWayUS = 1
	layer.Bandwidth[1].OneWayUS = 50
	if got := LatencyForSize(layer, 0); got != 0 {
		t.Errorf("clamped LatencyForSize(0) = %g, want 0", got)
	}
}

func TestLatencyForSizeDegenerateLayers(t *testing.T) {
	// Empty layer: the probe latency stands in at every size.
	empty := &report.CommLayer{LatencyUS: 7}
	for _, bytes := range []int64{0, 1, 1 << 20} {
		if got := LatencyForSize(empty, bytes); got != 7 {
			t.Errorf("empty layer: LatencyForSize(%d) = %g, want 7", bytes, got)
		}
	}
	// Single-point layer: proportional through the origin (one point
	// fixes only a bandwidth, not a latency intercept).
	single := &report.CommLayer{
		LatencyUS: 99,
		Bandwidth: []report.BWPoint{{Bytes: 1000, OneWayUS: 10}},
	}
	if got := LatencyForSize(single, 0); got != 0 {
		t.Errorf("single point: LatencyForSize(0) = %g, want 0", got)
	}
	if got := LatencyForSize(single, 500); got != 5 {
		t.Errorf("single point: LatencyForSize(500) = %g, want 5", got)
	}
	if got := LatencyForSize(single, 2000); got != 20 {
		t.Errorf("single point: LatencyForSize(2000) = %g, want 20", got)
	}
	// ChooseBcast still works on both degenerate layers.
	for _, layer := range []*report.CommLayer{empty, single} {
		choice, err := ChooseBcast(layer, 8, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if choice.Algorithm == "" {
			t.Errorf("no advice on degenerate layer %+v", layer)
		}
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"servet/internal/topology"
)

func TestDetectTLBOnTLBBox(t *testing.T) {
	m := topology.TLBBox()
	res, ok := mustDetectTLB(t, m, Options{Seed: 1})
	if !ok {
		t.Fatal("no TLB transition found on the TLB machine")
	}
	if res.Entries != 64 {
		t.Errorf("entries = %d, want 64", res.Entries)
	}
	if math.Abs(res.MissCycles-30) > 3 {
		t.Errorf("miss penalty = %.1f cycles, want ~30", res.MissCycles)
	}
}

func TestDetectTLBAbsentOnPlainMachines(t *testing.T) {
	for _, m := range []*topology.Machine{topology.Dempsey(), topology.Athlon3200()} {
		if res, ok := mustDetectTLB(t, m, Options{Seed: 1}); ok {
			t.Errorf("%s: phantom TLB detected: %+v", m.Name, res)
		}
	}
}

// TestTLBDoesNotPerturbCacheDetection: the cache-size pipeline on the
// TLB machine must still find its single 64 KB level — the 1 KB probe
// stride touches each page four times, so the amortized translation
// cost stays below the gradient threshold.
func TestTLBDoesNotPerturbCacheDetection(t *testing.T) {
	m := topology.TLBBox()
	det, _ := mustDetectCaches(t, m, Options{Seed: 1})
	if len(det) != 1 || det[0].SizeBytes != 64*topology.KB {
		t.Errorf("detected = %+v, want a single 64 KB level", det)
	}
}

func TestTLBValidation(t *testing.T) {
	m := topology.TLBBox()
	m.TLBMissCycles = 0
	if err := m.Validate(); err == nil {
		t.Error("TLB without a miss penalty accepted")
	}
}

func TestTLBBoxModelValidates(t *testing.T) {
	if err := topology.TLBBox().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectTLBCancelledContext: cancelling the context aborts the
// page-count sweep with context.Canceled.
func TestDetectTLBCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := DetectTLB(ctx, topology.TLBBox(), 0, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

package core

import (
	"context"
	"testing"

	"servet/internal/report"
	"servet/internal/topology"
)

// Test helpers for the measurement functions: each runs under a
// background context and fails the test on error.

func mustMcalibrator(t testing.TB, m *topology.Machine, core int, opt Options) Calibration {
	t.Helper()
	cal, err := Mcalibrator(context.Background(), m, core, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func mustDetectCaches(t testing.TB, m *topology.Machine, opt Options) ([]DetectedCache, Calibration) {
	t.Helper()
	det, cal, err := DetectCaches(context.Background(), m, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	return det, cal
}

func mustSharedCaches(t testing.TB, m *topology.Machine, levels []DetectedCache, opt Options) []SharedCacheLevel {
	t.Helper()
	res, err := SharedCaches(context.Background(), m, levels, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustMemoryOverhead(t testing.TB, m *topology.Machine, opt Options) (report.MemoryResult, float64) {
	t.Helper()
	res, probeNS, err := MemoryOverhead(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, probeNS
}

func mustDetectTLB(t testing.TB, m *topology.Machine, opt Options) (DetectedTLB, bool) {
	t.Helper()
	res, ok, err := DetectTLB(context.Background(), m, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, ok
}

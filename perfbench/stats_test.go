package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 1000, 2}, 10},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	// 1..100: the nearest-rank p-th percentile is p itself.
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100}, {0.5, 1}, {0, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Five samples: rank ceil(0.99*5) = 5, ceil(0.5*5) = 3.
	five := []float64{5, 1, 4, 2, 3}
	if got := percentile(five, 99); got != 5 {
		t.Errorf("percentile(five, 99) = %g, want 5", got)
	}
	if got := percentile(five, 50); got != 3 {
		t.Errorf("percentile(five, 50) = %g, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {39, 0}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", ms(0, 10), nil, 10 * time.Millisecond},
		{"disjoint", ms(0, 10), []interval{ms(1, 3), ms(5, 6)}, 7 * time.Millisecond},
		{"overlapping", ms(0, 10), []interval{ms(1, 4), ms(2, 6)}, 5 * time.Millisecond},
		{"clipped", ms(0, 10), []interval{ms(-5, 2), ms(8, 20), ms(30, 40)}, 6 * time.Millisecond},
		{"covered", ms(0, 10), []interval{ms(0, 6), ms(5, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

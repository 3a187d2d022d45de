package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.75, 75}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // ten beyond p99
		{999, 0.99, false},
		{100, 0.90, true},
		{99, 0.90, false},
		{40, 0.75, true},
		{39, 0.75, false},
		{20, 0.50, true},
		{19, 0.50, false},
	} {
		s := pct(make([]float64, c.n), c.q)
		if s.supported() != c.want {
			t.Errorf("n=%d q=%v: supported=%v, want %v (beyond=%d)", c.n, c.q, s.supported(), c.want, beyond(c.n, c.q))
		}
		if s.n != c.n {
			t.Errorf("stat carries n=%d, want %d", s.n, c.n)
		}
	}
	if got := pct(make([]float64, 1200), 0.99).String(); got != "p99 of n=1200" {
		t.Errorf("stat string %q", got)
	}
}

func TestShortfallRecorded(t *testing.T) {
	var r report
	r.addStat("ok_ms", pct(make([]float64, 1000), 0.99))
	r.addStat("short_ms", pct(make([]float64, 50), 0.99))
	if len(r.metrics) != 2 {
		t.Fatalf("both metrics are reported, got %d", len(r.metrics))
	}
	if len(r.short) != 1 {
		t.Fatalf("shortfalls %q, want exactly the p99 of 50 samples", r.short)
	}
}

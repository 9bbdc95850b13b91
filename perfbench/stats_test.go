package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{0.9, 1.0, 1.1, 1.05, 0.95}, 0.925, 1.075},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac(1..10) = %v, want 1", got)
	}
}

func TestTailPercentileLeavesTenAbove(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		idx int
	}{
		{100, 90, 89},
		{50, 80, 39},
		{40, 75, 29},
		{20, 50, 9},             // rank n−10 equals the median rank
		{15, 8.0 / 15 * 100, 7}, // never below the median
		{1, 100, 0},
	}
	for _, c := range cases {
		pct, idx := tailPercentile(c.n)
		if math.Abs(pct-c.pct) > 1e-9 || idx != c.idx {
			t.Errorf("tailPercentile(%d) = p%v at %d, want p%v at %d", c.n, pct, idx, c.pct, c.idx)
		}
		if c.n >= 2*tailGap && c.n-1-idx != tailGap {
			t.Errorf("tailPercentile(%d) leaves %d samples above, want %d", c.n, c.n-1-idx, tailGap)
		}
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // 50, 49, …, 1
	}
	if v, pct := tail(xs); v != 40 || pct != 80 {
		t.Errorf("tail(1..50) = %v at p%v, want 40 at p80", v, pct)
	}
}

func TestJobsPerSec(t *testing.T) {
	if got := jobsPerSec(30, 15*time.Second); got != 2 {
		t.Errorf("jobsPerSec(30, 15s) = %v, want 2", got)
	}
	if got := jobsPerSec(7, 3500*time.Millisecond); got != 2 {
		t.Errorf("jobsPerSec(7, 3.5s) = %v, want 2", got)
	}
	if !math.IsNaN(jobsPerSec(3, 0)) {
		t.Error("jobsPerSec over zero time is not NaN")
	}
}

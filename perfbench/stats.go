package main

import (
	"math"
	"sort"
	"time"
)

// tailGap is how many jobs must lie above the reported tail percentile:
// a tail drawn from fewer samples moves with every slow job.
const tailGap = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's acceptance spread is computed with. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailPercentile picks the highest nearest-rank percentile of n samples
// that leaves at least tailGap samples above it, never below the median:
// with fewer than 2·tailGap samples no percentile above p50 qualifies.
// It returns the percentile and the 0-based index of its sample in
// ascending order.
func tailPercentile(n int) (pct float64, idx int) {
	if n <= 0 {
		return math.NaN(), -1
	}
	rank := n - tailGap // 1-based nearest rank
	if med := (n + 1) / 2; rank < med {
		rank = med
	}
	return 100 * float64(rank) / float64(n), rank - 1
}

// tail returns the tailPercentile value of xs and the percentile used.
func tail(xs []float64) (value, pct float64) {
	pct, idx := tailPercentile(len(xs))
	if idx < 0 {
		return math.NaN(), pct
	}
	return sorted(xs)[idx], pct
}

// jobsPerSec is completed jobs over the wall time of the phase that ran
// them.
func jobsPerSec(done int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return math.NaN()
	}
	return float64(done) / elapsed.Seconds()
}

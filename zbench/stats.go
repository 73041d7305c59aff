package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// anotherPass decides whether a closed-loop workload that has run passes
// whole passes in elapsed starts one more: it runs the whole number of
// passes nearest to seconds, so a run's length does not flip between
// passes when one pass takes about as long as the run.
func anotherPass(elapsed time.Duration, passes int, seconds float64) bool {
	perPass := elapsed.Seconds() / float64(passes)
	return elapsed.Seconds()+perPass/2 < seconds
}

// tailLadder is the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a timing's tail: the
// workload's target percentile when at least ten of the n samples lie beyond
// it, else the highest percentile of the ladder that has ten beyond, else
// the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// latencyMetrics fills p50_ms and tail_ms from per-operation latencies in
// seconds, and logs which percentile the tail is and over how many samples.
func latencyMetrics(m map[string]float64, lat []float64, want float64, logf func(string, ...any)) {
	ms := make([]float64, len(lat))
	for i, v := range lat {
		ms[i] = v * 1e3
	}
	p := tailPercentile(len(ms), want)
	m["p50_ms"] = median(ms)
	m["tail_ms"] = percentile(ms, p)
	logf("latency: %d samples, p50 %.3f ms, tail = p%g %.3f ms (%d samples beyond)",
		len(ms), m["p50_ms"], p, m["tail_ms"], beyond(len(ms), p))
}

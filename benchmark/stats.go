package main

import (
	"math"
	"sort"
)

// The benchmark owns its statistics: internal/stats is program code (the
// cluster_mixed workload measures stats.BootstrapCI as a layer), so numbers
// reported here must not move when that package changes.

// median returns the middle value of xs (mean of the two middle values for
// even lengths), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercents are the candidate tail percentiles, highest first, each with
// the number of samples it takes to have one beyond it.
var tailPercents = []struct {
	p   float64
	per int
}{{99.99, 10000}, {99.9, 1000}, {99.5, 200}, {99, 100}, {98, 50}, {95, 20}, {90, 10}, {75, 4}}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it — the highest tail the sample supports — and
// falls back to the median when even p75 has fewer than ten beyond.
func tailPercentile(n int) float64 {
	for _, c := range tailPercents {
		if n >= 10*c.per {
			return c.p
		}
	}
	return 50
}

// geomean returns the geometric mean of xs, 0 for an empty slice or one that
// holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) does, which is what
// the repeatability criterion is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spreadShare is the interquartile distance of xs as a share of its median;
// with fewer than two values there is no spread to speak of.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

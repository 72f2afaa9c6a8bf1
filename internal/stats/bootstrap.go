package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CI is a bootstrap confidence interval for a speedup ratio. Point is the
// plug-in estimate mean(base)/mean(target); [Lo, Hi] is the percentile
// bootstrap interval at the given confidence Level.
type CI struct {
	Point     float64
	Lo, Hi    float64
	Level     float64 // e.g. 0.95
	Resamples int
}

// ExcludesOne reports whether the whole interval lies strictly on one side
// of 1.0 — the "this speedup is statistically real" criterion the paper's
// classic-vs-lockfree comparisons need.
func (c CI) ExcludesOne() bool { return c.Lo > 1 || c.Hi < 1 }

// String renders the interval as "1.42x [1.31, 1.55] @95%".
func (c CI) String() string {
	return fmt.Sprintf("%.3fx [%.3f, %.3f] @%g%%", c.Point, c.Lo, c.Hi, c.Level*100)
}

// BootstrapCI computes a percentile-bootstrap confidence interval for the
// speedup mean(base)/mean(target). Each of the `resamples` rounds draws a
// resample (with replacement) of base and of target independently and
// records the ratio of the resampled means; [Lo, Hi] are the (alpha/2,
// 1-alpha/2) percentiles of those ratios, where alpha = 1 - level.
//
// The resampling stream is driven by seed, so a given input always yields
// the same interval — results stored today remain comparable with results
// recomputed tomorrow. level defaults to 0.95 when out of (0, 1);
// resamples is clamped to at least 100. Inputs must be positive (they are
// run times); an empty or non-positive input is an error.
func BootstrapCI(base, target []float64, level float64, resamples int, seed int64) (CI, error) {
	if len(base) == 0 || len(target) == 0 {
		return CI{}, fmt.Errorf("stats: bootstrap needs non-empty samples (base n=%d, target n=%d)", len(base), len(target))
	}
	for _, x := range base {
		if !(x > 0) || math.IsInf(x, 0) {
			return CI{}, fmt.Errorf("stats: bootstrap base sample contains non-positive value %v", x)
		}
	}
	for _, x := range target {
		if !(x > 0) || math.IsInf(x, 0) {
			return CI{}, fmt.Errorf("stats: bootstrap target sample contains non-positive value %v", x)
		}
	}
	if !(level > 0 && level < 1) {
		level = 0.95
	}
	if resamples < 100 {
		resamples = 100
	}

	ci := CI{
		Point:     mean(base) / mean(target),
		Level:     level,
		Resamples: resamples,
	}

	rng := rand.New(rand.NewSource(seed))
	ratios := make([]float64, resamples)
	for i := range ratios {
		ratios[i] = resampleMean(rng, base) / resampleMean(rng, target)
	}
	sort.Float64s(ratios)

	alpha := 1 - level
	ci.Lo = percentileSorted(ratios, alpha/2)
	ci.Hi = percentileSorted(ratios, 1-alpha/2)
	return ci, nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// resampleMean draws len(xs) values from xs with replacement and returns
// their mean.
func resampleMean(rng *rand.Rand, xs []float64) float64 {
	var sum float64
	for range xs {
		sum += xs[rng.Intn(len(xs))]
	}
	return sum / float64(len(xs))
}

// percentileSorted returns the q-th quantile (0 <= q <= 1) of an ascending
// sorted slice using the nearest-rank method.
func percentileSorted(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

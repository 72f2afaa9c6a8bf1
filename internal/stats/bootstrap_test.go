package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBootstrapCIDegenerate(t *testing.T) {
	// Zero-variance inputs: every resample is identical, so the interval
	// collapses onto the exact ratio.
	base := []float64{200, 200, 200}
	target := []float64{100, 100, 100}
	ci, err := BootstrapCI(base, target, 0.95, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Point != 2 || ci.Lo != 2 || ci.Hi != 2 {
		t.Fatalf("degenerate CI = %v, want exactly 2.0 everywhere", ci)
	}
	if !ci.ExcludesOne() {
		t.Fatal("a [2,2] interval must exclude 1.0")
	}
}

func TestBootstrapCIKnownGap(t *testing.T) {
	// A clear 2x gap with mild noise: the interval must exclude 1.0 and
	// bracket the plug-in estimate.
	rng := rand.New(rand.NewSource(7))
	var base, target []float64
	for i := 0; i < 30; i++ {
		base = append(base, 200+10*rng.NormFloat64())
		target = append(target, 100+5*rng.NormFloat64())
	}
	ci, err := BootstrapCI(base, target, 0.95, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.ExcludesOne() {
		t.Fatalf("CI %v fails to exclude 1.0 on a 2x gap", ci)
	}
	if ci.Lo > ci.Point || ci.Point > ci.Hi {
		t.Fatalf("point estimate %v outside interval [%v, %v]", ci.Point, ci.Lo, ci.Hi)
	}
	if ci.Point < 1.8 || ci.Point > 2.2 {
		t.Fatalf("point estimate %v far from the true 2x ratio", ci.Point)
	}
}

func TestBootstrapCINoGap(t *testing.T) {
	// Identical distributions: the interval must straddle 1.0.
	rng := rand.New(rand.NewSource(9))
	var base, target []float64
	for i := 0; i < 40; i++ {
		base = append(base, 100+8*rng.NormFloat64())
		target = append(target, 100+8*rng.NormFloat64())
	}
	ci, err := BootstrapCI(base, target, 0.95, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ci.ExcludesOne() {
		t.Fatalf("CI %v claims a significant gap between identical distributions", ci)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	base := []float64{210, 190, 205, 197}
	target := []float64{101, 99, 103, 98}
	a, err := BootstrapCI(base, target, 0.95, 500, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapCI(base, target, 0.95, 500, 123)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave different intervals: %v vs %v", a, b)
	}
	c, err := BootstrapCI(base, target, 0.95, 500, 124)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds gave byte-identical intervals; the seed is ignored")
	}
}

func TestBootstrapCIRejectsBadInput(t *testing.T) {
	if _, err := BootstrapCI(nil, []float64{1}, 0.95, 100, 1); err == nil {
		t.Error("accepted empty base")
	}
	if _, err := BootstrapCI([]float64{1}, nil, 0.95, 100, 1); err == nil {
		t.Error("accepted empty target")
	}
	if _, err := BootstrapCI([]float64{1, -2}, []float64{1}, 0.95, 100, 1); err == nil {
		t.Error("accepted negative run time")
	}
	if _, err := BootstrapCI([]float64{0}, []float64{1}, 0.95, 100, 1); err == nil {
		t.Error("accepted zero run time")
	}
	if _, err := BootstrapCI([]float64{math.NaN()}, []float64{1}, 0.95, 100, 1); err == nil {
		t.Error("accepted NaN run time")
	}
}

// positiveSamples generates two bounded positive samples from quick's
// raw values, so the property tests explore real input space.
func positiveSamples(seedA, seedB uint32, nA, nB uint8) (base, target []float64) {
	ra := rand.New(rand.NewSource(int64(seedA)))
	rb := rand.New(rand.NewSource(int64(seedB)))
	la := int(nA%16) + 2
	lb := int(nB%16) + 2
	for i := 0; i < la; i++ {
		base = append(base, 1+1000*ra.Float64())
	}
	for i := 0; i < lb; i++ {
		target = append(target, 1+1000*rb.Float64())
	}
	return base, target
}

func TestBootstrapCIPropertyOrderedAndFinite(t *testing.T) {
	// For any positive input: Lo <= Hi, everything finite and positive,
	// and the interval brackets the plug-in point estimate (resampled
	// means can never escape [min, max] of the data, and the percentile
	// interval of ratios of such means always contains the full-sample
	// ratio for these bounded inputs).
	prop := func(seedA, seedB uint32, nA, nB uint8, seed int64) bool {
		base, target := positiveSamples(seedA, seedB, nA, nB)
		ci, err := BootstrapCI(base, target, 0.95, 300, seed)
		if err != nil {
			return false
		}
		if !(ci.Lo <= ci.Hi) {
			return false
		}
		for _, v := range []float64{ci.Point, ci.Lo, ci.Hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return false
			}
		}
		// The interval must stay inside the hard algebraic bounds of any
		// ratio of resampled means.
		lo := minOf(base) / maxOf(target)
		hi := maxOf(base) / minOf(target)
		return ci.Lo >= lo-1e-9 && ci.Hi <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCIPropertyScaleInvariant(t *testing.T) {
	// Scaling the base sample by c scales the whole interval by c; the
	// resampling indices depend only on the seed and lengths, so the
	// scaled interval is exactly c times the original.
	prop := func(seedA, seedB uint32, nA, nB uint8, seed int64, scaleRaw uint16) bool {
		base, target := positiveSamples(seedA, seedB, nA, nB)
		c := 1 + float64(scaleRaw%1000)/100 // scale factor in [1, 11)
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = c * v
		}
		a, err := BootstrapCI(base, target, 0.95, 300, seed)
		if err != nil {
			return false
		}
		b, err := BootstrapCI(scaled, target, 0.95, 300, seed)
		if err != nil {
			return false
		}
		return closeTo(b.Point, c*a.Point) && closeTo(b.Lo, c*a.Lo) && closeTo(b.Hi, c*a.Hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

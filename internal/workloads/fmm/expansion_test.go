package fmm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// directPhi sums q_j log(z - z_j) for test charges.
func directPhi(z []complex128, q []float64, at complex128) complex128 {
	var res complex128
	for j := range z {
		res += complex(q[j], 0) * cmplx.Log(at-z[j])
	}
	return res
}

// randomCharges places n charges uniformly in a box centered at c with
// half-width hw.
func randomCharges(rng *rand.Rand, n int, c complex128, hw float64) ([]complex128, []float64) {
	z := make([]complex128, n)
	q := make([]float64, n)
	for i := range z {
		z[i] = c + complex(hw*(2*rng.Float64()-1), hw*(2*rng.Float64()-1))
		q[i] = rng.Float64()
	}
	return z, q
}

func TestP2MMatchesDirectFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := complex(0.5, 0.5)
	z, q := randomCharges(rng, 20, c, 0.1)
	coeffs := make([]complex128, expansionP+1)
	for i := range z {
		p2m(coeffs, z[i], c, q[i])
	}
	// Evaluate well outside the box.
	for _, at := range []complex128{complex(2, 1), complex(-1, -0.5), complex(0.5, 3)} {
		want := directPhi(z, q, at)
		got := evalMultipole(coeffs, c, at)
		if d := cmplx.Abs(got - want); d > 1e-10*math.Max(1, cmplx.Abs(want)) {
			t.Fatalf("at %v: multipole %v, direct %v (|diff|=%g)", at, got, want, d)
		}
	}
}

func TestM2MPreservesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	child := complex(0.25, 0.25)
	parent := complex(0.5, 0.5)
	z, q := randomCharges(rng, 15, child, 0.1)
	src := make([]complex128, expansionP+1)
	for i := range z {
		p2m(src, z[i], child, q[i])
	}
	dst := make([]complex128, expansionP+1)
	m2m(dst, src, child, parent)
	for _, at := range []complex128{complex(3, 2), complex(-2, 1)} {
		want := directPhi(z, q, at)
		got := evalMultipole(dst, parent, at)
		// The shift converts an exact multipole into a truncated one;
		// at these distances the truncation error is tiny.
		if d := cmplx.Abs(got - want); d > 1e-8*math.Max(1, cmplx.Abs(want)) {
			t.Fatalf("at %v: shifted multipole %v, direct %v (|diff|=%g)", at, got, want, d)
		}
	}
}

func TestM2LMatchesDirectInWellSeparatedBox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcCenter := complex(0, 0)
	dstCenter := complex(1, 0) // separated by 2x the source half-width times 5
	z, q := randomCharges(rng, 15, srcCenter, 0.1)
	src := make([]complex128, expansionP+1)
	for i := range z {
		p2m(src, z[i], srcCenter, q[i])
	}
	dst := make([]complex128, expansionP+1)
	m2l(dst, src, srcCenter, dstCenter)
	for _, off := range []complex128{0, complex(0.05, 0.05), complex(-0.08, 0.03)} {
		at := dstCenter + off
		want := directPhi(z, q, at)
		got := evalLocal(dst, dstCenter, at)
		if d := cmplx.Abs(got - want); d > 1e-6*math.Max(1, cmplx.Abs(want)) {
			t.Fatalf("at %v: local %v, direct %v (|diff|=%g)", at, got, want, d)
		}
	}
}

func TestL2LPreservesLocalField(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	srcCenter := complex(0, 0)
	parent := complex(1, 0.2)
	childC := parent + complex(0.1, -0.05)
	z, q := randomCharges(rng, 10, srcCenter, 0.1)
	mp := make([]complex128, expansionP+1)
	for i := range z {
		p2m(mp, z[i], srcCenter, q[i])
	}
	loc := make([]complex128, expansionP+1)
	m2l(loc, mp, srcCenter, parent)
	shifted := make([]complex128, expansionP+1)
	l2l(shifted, loc, parent, childC)
	for _, off := range []complex128{0, complex(0.02, 0.02)} {
		at := childC + off
		want := evalLocal(loc, parent, at) // l2l must be exact vs the parent local
		got := evalLocal(shifted, childC, at)
		if d := cmplx.Abs(got - want); d > 1e-10*math.Max(1, cmplx.Abs(want)) {
			t.Fatalf("at %v: shifted local %v, parent local %v (|diff|=%g)", at, got, want, d)
		}
	}
}

func TestEvalLocalGradMatchesNumericDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srcCenter := complex(0, 0)
	lc := complex(1.2, -0.3)
	z, q := randomCharges(rng, 12, srcCenter, 0.1)
	mp := make([]complex128, expansionP+1)
	for i := range z {
		p2m(mp, z[i], srcCenter, q[i])
	}
	loc := make([]complex128, expansionP+1)
	m2l(loc, mp, srcCenter, lc)

	at := lc + complex(0.04, 0.02)
	got := evalLocalGrad(loc, lc, at)
	const h = 1e-6
	num := (evalLocal(loc, lc, at+complex(h, 0)) - evalLocal(loc, lc, at-complex(h, 0))) / complex(2*h, 0)
	if d := cmplx.Abs(got - num); d > 1e-6*math.Max(1, cmplx.Abs(num)) {
		t.Fatalf("gradient %v, numeric %v (|diff|=%g)", got, num, d)
	}
}

func TestBinomialTable(t *testing.T) {
	if binom[5][2] != 10 || binom[10][5] != 252 || binom[7][0] != 1 || binom[7][7] != 1 {
		t.Fatalf("binomial table wrong: C(5,2)=%g C(10,5)=%g", binom[5][2], binom[10][5])
	}
}

// TestTranslationOperatorsDoNotAllocate: m2m, m2l and l2l run tens of
// thousands of times per timed region, so their scratch lives on the stack.
func TestTranslationOperatorsDoNotAllocate(t *testing.T) {
	src := make([]complex128, expansionP+1)
	dst := make([]complex128, expansionP+1)
	for k := range src {
		src[k] = complex(float64(k+1), -0.5)
	}
	zs, zd := complex(0.25, 0.25), complex(2.5, 1.5)
	for name, op := range map[string]func(){
		"m2m": func() { m2m(dst, src, zs, zd) },
		"m2l": func() { m2l(dst, src, zs, zd) },
		"l2l": func() { l2l(dst, src, zs, zd) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}

package mdcommon_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workloads/mdcommon"
)

func TestWrapKeepsCoordinateInBox(t *testing.T) {
	f := func(raw int16) bool {
		box := 10.0
		// Wrap handles one box-length of excursion (how integrators
		// use it), so test displacements within (-box, 2*box).
		x := float64(raw)/math.MaxInt16*14.9 - 2.4 // ~[-12.3, 12.5] -> clamp below
		for x < -box {
			x += box
		}
		for x >= 2*box {
			x -= box
		}
		w := mdcommon.Wrap(x, box)
		return w >= 0 && w < box
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinImageIsNearestDisplacement(t *testing.T) {
	box := 8.0
	cases := []struct{ d, want float64 }{
		{0, 0},
		{3.9, 3.9},
		{4.1, -3.9},
		{-4.1, 3.9},
		{-3.9, -3.9},
	}
	for _, c := range cases {
		if got := mdcommon.MinImage(c.d, box); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinImage(%g) = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestPairInteractionNewtonsThirdLaw(t *testing.T) {
	box := mdcommon.Box(64)
	rc := mdcommon.Cutoff(box)
	x := []float64{1, 1, 1, 1.8, 1.2, 1.1}
	f := make([]float64, 6)
	pe := mdcommon.PairInteraction(x, f, 0, 1, box, rc, 0)
	if pe == 0 {
		t.Fatal("pair within cutoff produced no interaction")
	}
	for d := 0; d < 3; d++ {
		if f[d]+f[3+d] != 0 {
			t.Fatalf("forces not equal and opposite: %v", f)
		}
	}
}

func TestPairInteractionBeyondCutoffIsZero(t *testing.T) {
	box := 100.0
	x := []float64{0, 0, 0, 50, 0, 0}
	f := make([]float64, 6)
	if pe := mdcommon.PairInteraction(x, f, 0, 1, box, 2.5, 0); pe != 0 {
		t.Fatalf("interaction beyond cutoff: pe=%g", pe)
	}
	for _, v := range f {
		if v != 0 {
			t.Fatalf("force beyond cutoff: %v", f)
		}
	}
}

func TestComputeForcesSumsToZero(t *testing.T) {
	n := 32
	box := mdcommon.Box(n)
	rc := mdcommon.Cutoff(box)
	x := make([]float64, 3*n)
	v := make([]float64, 3*n)
	mdcommon.InitState(x, v, n, box, 7)
	f := make([]float64, 3*n)
	mdcommon.ComputeForces(x, f, n, box, rc)
	for d := 0; d < 3; d++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += f[3*i+d]
		}
		if math.Abs(sum) > 1e-9 {
			t.Fatalf("net force[%d] = %g, want ~0", d, sum)
		}
	}
}

func TestInitStateZeroMomentumAndInBox(t *testing.T) {
	n := 100
	box := mdcommon.Box(n)
	x := make([]float64, 3*n)
	v := make([]float64, 3*n)
	mdcommon.InitState(x, v, n, box, 3)
	var p [3]float64
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			if x[3*i+d] < 0 || x[3*i+d] >= box {
				t.Fatalf("molecule %d outside box: %v", i, x[3*i:3*i+3])
			}
			p[d] += v[3*i+d]
		}
	}
	for d := 0; d < 3; d++ {
		if math.Abs(p[d]) > 1e-9*float64(n) {
			t.Fatalf("net momentum[%d] = %g", d, p[d])
		}
	}
}

func TestVShiftMakesPotentialContinuous(t *testing.T) {
	rc := 2.5
	vs := mdcommon.VShift(rc)
	// The shifted potential just inside the cutoff must approach zero.
	x := []float64{0, 0, 0, rc - 1e-9, 0, 0}
	f := make([]float64, 6)
	pe := mdcommon.PairInteraction(x, f, 0, 1, 100, rc, vs)
	if math.Abs(pe) > 1e-6 {
		t.Fatalf("shifted potential at cutoff = %g, want ~0", pe)
	}
}

// TestRowForcesBitIdenticalToPairLoop holds RowForces bit for bit to a
// loop of PairInteraction calls over the same row, on the WATER programs'
// initial states, row by row into one force array as a thread's cyclic rows
// accumulate. Whole runs are not compared: at three or more threads the
// merged forces arrive in schedule order.
func TestRowForcesBitIdenticalToPairLoop(t *testing.T) {
	for _, n := range []int{64, 216, 512} {
		box := mdcommon.Box(n)
		rc := mdcommon.Cutoff(box)
		vs := mdcommon.VShift(rc)
		for _, seed := range []int64{1, 7, 77} {
			x := make([]float64, 3*n)
			v := make([]float64, 3*n)
			mdcommon.InitState(x, v, n, box, seed)
			got := make([]float64, 3*n)
			want := make([]float64, 3*n)
			for i := 0; i < n; i++ {
				pg := mdcommon.RowForces(x, got, i, n, box, rc, vs)
				var pw float64
				for j := i + 1; j < n; j++ {
					pw += mdcommon.PairInteraction(x, want, i, j, box, rc, vs)
				}
				if math.Float64bits(pg) != math.Float64bits(pw) {
					t.Fatalf("n %d seed %d: row %d energy %v, pair loop %v", n, seed, i, pg, pw)
				}
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n %d seed %d: f[%d] = %v, pair loop %v", n, seed, k, got[k], want[k])
				}
			}
		}
	}
}

func TestPotentialMatchesPairSum(t *testing.T) {
	n := 20
	box := mdcommon.Box(n)
	rc := mdcommon.Cutoff(box)
	vs := mdcommon.VShift(rc)
	x := make([]float64, 3*n)
	v := make([]float64, 3*n)
	mdcommon.InitState(x, v, n, box, 11)
	got := mdcommon.Potential(x, n, box, rc, vs)
	var want float64
	scratch := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want += mdcommon.PairInteraction(x, scratch, i, j, box, rc, vs)
		}
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("Potential = %g, pair sum = %g", got, want)
	}
}

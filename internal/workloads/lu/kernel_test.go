package lu

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

func prepare(t *testing.T, kit sync4.Kit, threads int, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// refUpdateInterior is updateInterior as it was before the 2 x 4 register
// tiles, kept verbatim as the oracle the kernel is held to.
func (in *instance) refUpdateInterior(i0, j0, k0 int) {
	n, bs := in.n, in.block
	for i := 0; i < bs; i++ {
		for r := 0; r < bs; r++ {
			lir := in.a[(i0+i)*n+k0+r]
			if lir == 0 {
				continue
			}
			urow := in.a[(k0+r)*n+j0 : (k0+r)*n+j0+bs]
			arow := in.a[(i0+i)*n+j0 : (i0+i)*n+j0+bs]
			for j := 0; j < bs; j++ {
				arow[j] -= lir * urow[j]
			}
		}
	}
}

// refRun is the factorization's three phases on one goroutine, with update
// applying the interior blocks.
func (in *instance) refRun(update func(i0, j0, k0 int)) {
	bs, nb := in.block, in.nb
	for kb := 0; kb < nb; kb++ {
		k0 := kb * bs
		in.factorDiag(k0)
		for jb := kb + 1; jb < nb; jb++ {
			in.solveRowBlock(k0, jb*bs)
		}
		for ib := kb + 1; ib < nb; ib++ {
			in.solveColBlock(ib*bs, k0)
		}
		for ib := kb + 1; ib < nb; ib++ {
			for jb := kb + 1; jb < nb; jb++ {
				update(ib*bs, jb*bs, k0)
			}
		}
	}
	in.ran = true
}

// TestBitIdenticalToReference holds every parallel run's factored matrix bit
// for bit to the reference kernel's. A tile edge off by one, an accumulator
// summing its r terms out of order, or a block updated by two threads shows
// up as a differing bit.
func TestBitIdenticalToReference(t *testing.T) {
	cases := []struct {
		scale core.Scale
		seeds []int64
	}{
		{core.ScaleTest, []int64{1, 7, 77}},
		{core.ScaleSmall, []int64{1, 7, 77}},
		{core.ScaleDefault, []int64{7}},
	}
	for _, c := range cases {
		if c.scale == core.ScaleDefault && testing.Short() {
			continue
		}
		for _, seed := range c.seeds {
			ref := prepare(t, classic.New(), 1, c.scale, seed)
			ref.refRun(ref.refUpdateInterior)
			for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
				for _, threads := range []int{1, 2, 3, 7} {
					got := prepare(t, kit, threads, c.scale, seed)
					if err := got.Run(); err != nil {
						t.Fatal(err)
					}
					if err := got.Verify(); err != nil {
						t.Fatal(err)
					}
					if i := firstDiff(got.a, ref.a); i >= 0 {
						t.Fatalf("scale %s seed %d, %s, %d threads: a[%d] is %v, reference %v", c.scale, seed, kit.Name(), threads, i, got.a[i], ref.a[i])
					}
				}
			}
		}
	}
}

// TestVerifyRejectsSinglePrecisionUpdate is the tolerance's own check: an
// interior update that rounds every result to float32 must fail Verify.
func TestVerifyRejectsSinglePrecisionUpdate(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleDefault} {
		in := prepare(t, classic.New(), 1, scale, 7)
		n, bs := in.n, in.block
		in.refRun(func(i0, j0, k0 int) {
			for i := 0; i < bs; i++ {
				for r := 0; r < bs; r++ {
					lir := in.a[(i0+i)*n+k0+r]
					for j := 0; j < bs; j++ {
						a := &in.a[(i0+i)*n+j0+j]
						*a = float64(float32(*a - lir*in.a[(k0+r)*n+j0+j]))
					}
				}
			}
		})
		if err := in.Verify(); err == nil {
			t.Fatalf("scale %s: Verify accepted a factorization updated in float32", scale)
		}
	}
}

func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

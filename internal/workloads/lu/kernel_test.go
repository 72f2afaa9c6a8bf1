package lu

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/lucommon"
)

func prepare(t *testing.T, kit sync4.Kit, threads int, scale core.Scale, seed int64) *lucommon.LU {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*lucommon.LU)
}

// ref is the factorization on one row-major n x n array, one goroutine,
// with this layout's loops as they were before the shared engine: the
// oracle the engine is held to in the non-contiguous layout.
type ref struct {
	n     int
	block int
	nb    int
	a     []float64
}

// newRef copies in's matrix.
func newRef(in *lucommon.LU) *ref {
	n, bs := in.Size()
	r := &ref{n: n, block: bs, nb: n / bs, a: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.a[i*n+j] = *in.At(i, j)
		}
	}
	return r
}

func (in *ref) factorDiag(k0 int) {
	n, bs := in.n, in.block
	for k := 0; k < bs; k++ {
		pivot := in.a[(k0+k)*n+k0+k]
		for i := k + 1; i < bs; i++ {
			in.a[(k0+i)*n+k0+k] /= pivot
			lik := in.a[(k0+i)*n+k0+k]
			for j := k + 1; j < bs; j++ {
				in.a[(k0+i)*n+k0+j] -= lik * in.a[(k0+k)*n+k0+j]
			}
		}
	}
}

func (in *ref) solveRowBlock(k0, j0 int) {
	n, bs := in.n, in.block
	for i := 1; i < bs; i++ {
		for r := 0; r < i; r++ {
			lir := in.a[(k0+i)*n+k0+r]
			for j := 0; j < bs; j++ {
				in.a[(k0+i)*n+j0+j] -= lir * in.a[(k0+r)*n+j0+j]
			}
		}
	}
}

func (in *ref) solveColBlock(i0, k0 int) {
	n, bs := in.n, in.block
	for j := 0; j < bs; j++ {
		ujj := in.a[(k0+j)*n+k0+j]
		for i := 0; i < bs; i++ {
			sum := in.a[(i0+i)*n+k0+j]
			for r := 0; r < j; r++ {
				sum -= in.a[(i0+i)*n+k0+r] * in.a[(k0+r)*n+k0+j]
			}
			in.a[(i0+i)*n+k0+j] = sum / ujj
		}
	}
}

// refUpdateInterior is the interior update as it was before the 2 x 4
// register tiles, kept verbatim as the oracle the kernel is held to.
func (in *ref) refUpdateInterior(i0, j0, k0 int) {
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
func (in *ref) refRun(update func(i0, j0, k0 int)) {
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
}

// TestBitIdenticalToReference holds every parallel run's factored matrix bit
// for bit to the reference kernel's. A tile edge off by one, an accumulator
// summing its r terms out of order, a block updated by two threads or a
// stride slip in the shared engine shows up as a differing bit.
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
			ref := newRef(prepare(t, classic.New(), 1, c.scale, seed))
			ref.refRun(ref.refUpdateInterior)
			n := ref.n
			for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
				for _, threads := range []int{1, 2, 3, 7} {
					got := prepare(t, kit, threads, c.scale, seed)
					if err := got.Run(); err != nil {
						t.Fatal(err)
					}
					if err := got.Verify(); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n*n; i++ {
						if g := *got.At(i/n, i%n); math.Float64bits(g) != math.Float64bits(ref.a[i]) {
							t.Fatalf("scale %s seed %d, %s, %d threads: a[%d] is %v, reference %v", c.scale, seed, kit.Name(), threads, i, g, ref.a[i])
						}
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
		r := newRef(in)
		n, bs := r.n, r.block
		r.refRun(func(i0, j0, k0 int) {
			for i := 0; i < bs; i++ {
				for k := 0; k < bs; k++ {
					lik := r.a[(i0+i)*n+k0+k]
					for j := 0; j < bs; j++ {
						a := &r.a[(i0+i)*n+j0+j]
						*a = float64(float32(*a - lik*r.a[(k0+k)*n+j0+j]))
					}
				}
			}
		})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				*in.At(i, j) = r.a[i*n+j]
			}
		}
		if err := in.Verify(); err == nil {
			t.Fatalf("scale %s: Verify accepted a factorization updated in float32", scale)
		}
	}
}

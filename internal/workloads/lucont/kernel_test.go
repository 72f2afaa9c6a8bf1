package lucont

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

// ref is the factorization on dense tiles, one goroutine, with this
// layout's loops as they were before the shared engine: the oracle the
// engine is held to in the contiguous layout.
type ref struct {
	n     int
	block int
	nb    int
	tiles [][]float64 // nb x nb tiles, each block x block row-major
}

// newRef copies in's matrix into tiles.
func newRef(in *lucommon.LU) *ref {
	n, bs := in.Size()
	r := &ref{n: n, block: bs, nb: n / bs, tiles: make([][]float64, (n/bs)*(n/bs))}
	for t := range r.tiles {
		r.tiles[t] = make([]float64, bs*bs)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			*r.at(i, j) = *in.At(i, j)
		}
	}
	return r
}

func (in *ref) tile(bi, bj int) []float64 { return in.tiles[bi*in.nb+bj] }

func (in *ref) at(i, j int) *float64 {
	bs := in.block
	return &in.tile(i/bs, j/bs)[(i%bs)*bs+j%bs]
}

func factorDiag(d []float64, bs int) {
	for k := 0; k < bs; k++ {
		pivot := d[k*bs+k]
		for i := k + 1; i < bs; i++ {
			d[i*bs+k] /= pivot
			lik := d[i*bs+k]
			for j := k + 1; j < bs; j++ {
				d[i*bs+j] -= lik * d[k*bs+j]
			}
		}
	}
}

func solveRowTile(diag, a []float64, bs int) {
	for i := 1; i < bs; i++ {
		for r := 0; r < i; r++ {
			lir := diag[i*bs+r]
			for j := 0; j < bs; j++ {
				a[i*bs+j] -= lir * a[r*bs+j]
			}
		}
	}
}

func solveColTile(diag, a []float64, bs int) {
	for j := 0; j < bs; j++ {
		ujj := diag[j*bs+j]
		for i := 0; i < bs; i++ {
			sum := a[i*bs+j]
			for r := 0; r < j; r++ {
				sum -= a[i*bs+r] * diag[r*bs+j]
			}
			a[i*bs+j] = sum / ujj
		}
	}
}

// refUpdateTile is the tile update as it was before the 2 x 4 register
// tiles, kept verbatim as the oracle the kernel is held to.
func refUpdateTile(l, u, c []float64, bs int) {
	for i := 0; i < bs; i++ {
		for r := 0; r < bs; r++ {
			lir := l[i*bs+r]
			if lir == 0 {
				continue
			}
			urow := u[r*bs : (r+1)*bs]
			crow := c[i*bs : (i+1)*bs]
			for j := 0; j < bs; j++ {
				crow[j] -= lir * urow[j]
			}
		}
	}
}

// refRun is the factorization's three phases on one goroutine, with update
// applying the interior tiles.
func (in *ref) refRun(update func(l, u, c []float64, bs int)) {
	nb, bs := in.nb, in.block
	for kb := 0; kb < nb; kb++ {
		factorDiag(in.tile(kb, kb), bs)
		for jb := kb + 1; jb < nb; jb++ {
			solveRowTile(in.tile(kb, kb), in.tile(kb, jb), bs)
		}
		for ib := kb + 1; ib < nb; ib++ {
			solveColTile(in.tile(kb, kb), in.tile(ib, kb), bs)
		}
		for ib := kb + 1; ib < nb; ib++ {
			for jb := kb + 1; jb < nb; jb++ {
				update(in.tile(ib, kb), in.tile(kb, jb), in.tile(ib, jb), bs)
			}
		}
	}
}

// TestBitIdenticalToReference holds every parallel run's factored tiles bit
// for bit to the reference kernel's. A tile edge off by one, an accumulator
// summing its r terms out of order, a tile updated by two threads or a
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
			ref.refRun(refUpdateTile)
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
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if g, w := *got.At(i, j), *ref.at(i, j); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("scale %s seed %d, %s, %d threads: element (%d, %d) is %v, reference %v", c.scale, seed, kit.Name(), threads, i, j, g, w)
							}
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
		r.refRun(func(l, u, c []float64, bs int) {
			for i := 0; i < bs; i++ {
				for r := 0; r < bs; r++ {
					for j := 0; j < bs; j++ {
						c[i*bs+j] = float64(float32(c[i*bs+j] - l[i*bs+r]*u[r*bs+j]))
					}
				}
			}
		})
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.n; i++ {
			for j := 0; j < r.n; j++ {
				*in.At(i, j) = *r.at(i, j)
			}
		}
		if err := in.Verify(); err == nil {
			t.Fatalf("scale %s: Verify accepted a factorization updated in float32", scale)
		}
	}
}

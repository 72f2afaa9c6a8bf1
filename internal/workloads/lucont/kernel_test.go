package lucont

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

// refUpdateTile is updateTile as it was before the 2 x 4 register tiles,
// kept verbatim as the oracle the kernel is held to.
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
func (in *instance) refRun(update func(l, u, c []float64, bs int)) {
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
	in.ran = true
}

// TestBitIdenticalToReference holds every parallel run's factored tiles bit
// for bit to the reference kernel's. A tile edge off by one, an accumulator
// summing its r terms out of order, or a tile updated by two threads shows
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
			ref.refRun(refUpdateTile)
			for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
				for _, threads := range []int{1, 2, 3, 7} {
					got := prepare(t, kit, threads, c.scale, seed)
					if err := got.Run(); err != nil {
						t.Fatal(err)
					}
					if err := got.Verify(); err != nil {
						t.Fatal(err)
					}
					for k := range ref.tiles {
						if i := firstDiff(got.tiles[k], ref.tiles[k]); i >= 0 {
							t.Fatalf("scale %s seed %d, %s, %d threads: tile %d element %d is %v, reference %v", c.scale, seed, kit.Name(), threads, k, i, got.tiles[k][i], ref.tiles[k][i])
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
		in.refRun(func(l, u, c []float64, bs int) {
			for i := 0; i < bs; i++ {
				for r := 0; r < bs; r++ {
					for j := 0; j < bs; j++ {
						c[i*bs+j] = float64(float32(c[i*bs+j] - l[i*bs+r]*u[r*bs+j]))
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

package lucommon_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/lu"
	"repro/internal/workloads/lucommon"
	"repro/internal/workloads/lucont"
)

// TestLayoutsFactorIdentically holds lu and lu-contiguous to the same factor
// bits, element by element: the engine's arithmetic is the same in both
// layouts, so any difference is an indexing slip in one of them that
// Verify's tolerance might let through.
func TestLayoutsFactorIdentically(t *testing.T) {
	factor := func(b core.Benchmark, cfg core.Config) *lucommon.LU {
		inst, err := b.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
		return inst.(*lucommon.LU)
	}
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		if scale == core.ScaleDefault && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 7, 77} {
			for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
				for _, threads := range []int{1, 2, 3, 7} {
					cfg := core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed}
					rows, tiles := factor(lu.New(), cfg), factor(lucont.New(), cfg)
					n, _ := rows.Size()
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							if r, c := *rows.At(i, j), *tiles.At(i, j); math.Float64bits(r) != math.Float64bits(c) {
								t.Fatalf("scale %s seed %d, %s, %d threads: element (%d, %d) is %v in lu, %v in lu-contiguous",
									scale, seed, kit.Name(), threads, i, j, r, c)
							}
						}
					}
				}
			}
		}
	}
}

// refInput is Prepare's generation loop as it was while the instance kept a
// row-major copy of its input, kept verbatim as the oracle inputRow is held
// to.
func refInput(n int, seed int64) []float64 {
	orig := make([]float64, n*n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			orig[i*n+j] = rng.Float64() - 0.5
		}
		// Diagonal dominance guarantees a stable pivot-free
		// factorization, matching the original input generator.
		orig[i*n+i] += float64(n)
	}
	return orig
}

// TestPrepareDrawsTheReferenceInput holds both layouts' prepared blocks,
// which Verify regenerates rather than copies, to the reference loop
// element by element.
func TestPrepareDrawsTheReferenceInput(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		for _, seed := range []int64{1, 7, 77} {
			for _, b := range []core.Benchmark{lu.New(), lucont.New()} {
				inst, err := b.Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: scale, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				m := inst.(*lucommon.LU)
				n, _ := m.Size()
				want := refInput(n, seed)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got := *m.At(i, j); math.Float64bits(got) != math.Float64bits(want[i*n+j]) {
							t.Fatalf("%s scale %s seed %d: element (%d, %d) is %v, reference %v",
								b.Name(), scale, seed, i, j, got, want[i*n+j])
						}
					}
				}
			}
		}
	}
}

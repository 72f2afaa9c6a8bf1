package lucommon_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
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

// TestPrepareDrawsTheReferenceInput holds both layouts' prepared blocks,
// which Verify regenerates rather than copies, to the committed SHA-256 of
// the input's float64 bits in row-major order. The digests were taken from
// the generation loop the programs used while the instance kept a
// row-major copy of its input.
func TestPrepareDrawsTheReferenceInput(t *testing.T) {
	want := map[string]string{
		"test seed=1":     "0f7e323b1d3fe50db72af6851f98d78b1712a318e3a428ee22dd45690ca3c12c",
		"test seed=7":     "83d6b960747eb8f5b2886219b0fd8df27f8f5d56c241e400c50b43d36de3b4b0",
		"test seed=77":    "2d1729bc0deab39e8f3044e8b283249657fad94f393c9c2802f71aba3656b37f",
		"small seed=1":    "743d8bde482ccb1284868b18cd1a266014ca21cf5c224947b72659e5549f95e1",
		"small seed=7":    "c5ab5cd92749889d4ca6f80b573063d942d46dbbbbb13bfa23d8eb96127a3ebe",
		"small seed=77":   "929de8ac67fff0a63cd60d1f205d8e3a89d36cd1c3199a23950302aa496bcf97",
		"default seed=1":  "b4ccbf04117026472218b44476debd3f958ba74cb999f19aed313b9df282d44b",
		"default seed=7":  "60c638f63698d9c2b350edac0ec1a360135f8553c4393f55d227310972b7e386",
		"default seed=77": "c11605734a3da644a8d0fc53eb494d0fa358a2d9ae273aa02bd05e1937f64645",
	}
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		for _, seed := range []int64{1, 7, 77} {
			for _, b := range []core.Benchmark{lu.New(), lucont.New()} {
				inst, err := b.Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: scale, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				m := inst.(*lucommon.LU)
				n, _ := m.Size()
				h := sha256.New()
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(*m.At(i, j))))
					}
				}
				key := fmt.Sprintf("%s seed=%d", scale, seed)
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[key] {
					t.Errorf("%s %s: input digest %s, reference %s", b.Name(), key, got, want[key])
				}
			}
		}
	}
}

package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// run prepares, runs and verifies one instance and returns it.
func run(t *testing.T, kit sync4.Kit, threads int, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return inst.(*instance)
}

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
		for _, threads := range []int{1, 2, 3, 7, 16} {
			kit, threads := kit, threads
			t.Run(kit.Name()+"/"+itoa(threads), func(t *testing.T) {
				t.Parallel()
				run(t, kit, threads, core.ScaleTest, 1)
			})
		}
	}
}

func TestRejectsTooManyThreads(t *testing.T) {
	// ScaleTest has 2^6 = 64 rows; 65 threads must fail.
	_, err := New().Prepare(core.Config{Threads: 65, Kit: classic.New(), Scale: core.ScaleTest})
	if err == nil {
		t.Fatal("Prepare accepted more threads than rows")
	}
}

func TestInstanceCannotBeReused(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Run did not fail")
	}
}

// TestDeterministicAcrossKits requires the same output bits under both kits
// and every thread count. Each row's arithmetic does not depend on which
// thread owns it, so any difference means a step's result depends on the row
// split; 3, 7 and 16 threads leave partial edge tiles in the transposes.
func TestDeterministicAcrossKits(t *testing.T) {
	want := run(t, classic.New(), 1, core.ScaleTest, 1).trans
	for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
		for _, threads := range []int{1, 2, 3, 7, 16} {
			got := run(t, kit, threads, core.ScaleTest, 1).trans
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s, %d threads: element %d is %v, with classic on 1 thread %v", kit.Name(), threads, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParsevalEnergy checks the run's output against physics rather than
// the oracle: sum |X|^2 = n sum |x|^2.
func TestParsevalEnergy(t *testing.T) {
	in := run(t, lockfree.New(), 2, core.ScaleTest, 7)
	x := make([]complex128, in.n)
	input(x, in.seed)
	var ein, eout float64
	for i := range x {
		ein += energy(x[i])
		eout += energy(in.trans[i])
	}
	want := float64(in.n) * ein
	if rel := math.Abs(eout-want) / want; rel > 1e-12 {
		t.Errorf("sum |X|^2 = %v, n sum |x|^2 = %v: relative difference %g, want <= 1e-12", eout, want, rel)
	}
}

// TestVerifyRejectsSinglePrecisionRoots is the tolerance's own check: roots
// rounded to float32 are an error of about 1e-8 per twiddle, which Verify
// must see.
func TestVerifyRejectsSinglePrecisionRoots(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*instance)
	for _, table := range [][]complex128{in.roots, in.fine} {
		for j, w := range table {
			table[j] = complex(float64(float32(real(w))), float64(float32(imag(w))))
		}
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err == nil {
		t.Fatal("Verify accepted a transform computed with float32 roots")
	}
}

// TestBlockedTransposeMatchesNaive moves every element of a matrix whose
// values name their position, for every split of the rows among 1-16
// threads, and requires the naive transpose's result exactly.
func TestBlockedTransposeMatchesNaive(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall} {
		inst, err := New().Prepare(core.Config{Threads: 1, Kit: lockfree.New(), Scale: scale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*instance)
		src := make([]complex128, in.n)
		for i := range src {
			src[i] = complex(float64(i), -float64(i))
		}
		want := make([]complex128, in.n)
		for r := 0; r < in.rootN; r++ {
			for c := 0; c < in.rootN; c++ {
				want[c*in.rootN+r] = src[r*in.rootN+c]
			}
		}
		for threads := 1; threads <= 16; threads++ {
			got := make([]complex128, in.n)
			for tid := 0; tid < threads; tid++ {
				lo, hi := core.BlockRange(tid, threads, in.rootN)
				in.transposeRows(src, got, lo, hi)
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("scale %s, %d threads: element %d is %v, naive transpose %v", scale, threads, i, got[i], want[i])
				}
			}
		}
	}
}

func energy(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestInputIsTheRandFloat64Stream holds input, which draws from its source
// directly, to the rand.Rand Float64 stream it stands in for, at every scale
// Prepare uses and more seeds than the suite runs.
func TestInputIsTheRandFloat64Stream(t *testing.T) {
	for _, m := range []int{12, 16, 20} {
		for _, seed := range []int64{0, 1, 7, 77, -3} {
			x := make([]complex128, 1<<m)
			input(x, seed)
			rng := rand.New(rand.NewSource(seed))
			for i, got := range x {
				if want := complex(rng.Float64()-0.5, rng.Float64()-0.5); !sameBits(got, want) {
					t.Fatalf("m=%d seed %d: point %d is %v, the Float64 stream gives %v", m, seed, i, got, want)
				}
			}
		}
	}
}

package cholesky

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// refInput is Prepare's generation loop as it was while the instance kept a
// copy of its input, kept verbatim as the oracle fillSPD is held to.
func refInput(n int, seed int64) []float64 {
	a := make([]float64, n*n)
	rng := rand.New(rand.NewSource(seed))
	// Symmetric, strongly diagonally dominant => positive definite.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			a[i*n+j] = v
			a[j*n+i] = v
		}
		a[i*n+i] += float64(n)
	}
	return a
}

// TestPrepareDrawsTheReferenceInput holds the prepared matrix, which Verify
// regenerates rather than copies, to the reference loop element by element.
func TestPrepareDrawsTheReferenceInput(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		for _, seed := range []int64{1, 7, 77} {
			in := prepare(t, lockfree.New(), 2, scale, seed)
			want := refInput(in.n, seed)
			if i := firstDiff(in.a, want); i >= 0 {
				t.Fatalf("scale %s seed %d: a[%d] is %v, reference %v", scale, seed, i, in.a[i], want[i])
			}
		}
	}
}

// TestVerifyCatchesCorruption perturbs one entry of L by a relative 1e-6
// after a correct factorization, once inside the first diagonal block and
// once in the last block row: Verify must reject both.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, at := range [][2]int{{1, 0}, {127, 1}} {
		in := prepare(t, classic.New(), 2, core.ScaleTest, 3)
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(); err != nil {
			t.Fatal(err)
		}
		in.a[at[0]*in.n+at[1]] *= 1 + 1e-6
		if err := in.Verify(); err == nil {
			t.Fatalf("Verify accepted L[%d][%d] off by a relative 1e-6", at[0], at[1])
		}
	}
}

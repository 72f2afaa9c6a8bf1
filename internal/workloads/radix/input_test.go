package radix

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/lockfree"
)

func prepare(t *testing.T, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// refKeys is Prepare's generation loop as it was while the instance kept a
// copy of its input, kept verbatim as the oracle fillKeys is held to.
func refKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << keyBits)
	}
	return keys
}

// TestPrepareDrawsTheReferenceInput holds the prepared keys, which Verify
// regenerates rather than copies, to the reference loop key for key.
func TestPrepareDrawsTheReferenceInput(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		for _, seed := range []int64{1, 7, 77} {
			in := prepare(t, scale, seed)
			for i, want := range refKeys(in.n, seed) {
				if in.keys[i] != want {
					t.Fatalf("scale %s seed %d: key %d is %d, reference %d", scale, seed, i, in.keys[i], want)
				}
			}
		}
	}
}

// TestVerifyCatchesCorruption swaps two unequal neighbours of the sorted
// output: still a permutation of the input, no longer sorted.
func TestVerifyCatchesCorruption(t *testing.T) {
	in := prepare(t, core.ScaleTest, 1)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err != nil {
		t.Fatalf("uncorrupted output: %v", err)
	}
	i := 0
	for in.keys[i] == in.keys[i+1] {
		i++
	}
	in.keys[i], in.keys[i+1] = in.keys[i+1], in.keys[i]
	if err := in.Verify(); err == nil {
		t.Fatalf("Verify accepted keys %d and %d swapped", i, i+1)
	}
}

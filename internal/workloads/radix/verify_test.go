package radix

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/lockfree"
)

// TestVerifyCatchesCorruption swaps two unequal neighbours of the sorted
// output: still a permutation of the input, no longer sorted.
func TestVerifyCatchesCorruption(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := inst.(*instance)
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

package cholesky_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/cholesky"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, cholesky.New())
}

// TestBitIdenticalToReference holds the factor bit for bit to cholesky's
// committed result digests under both kits at 1, 2, 3 and 7 threads: a
// block updated in another order or from a stale block changes a bit.
func TestBitIdenticalToReference(t *testing.T) {
	workloadtest.MatchesDigests(t, cholesky.New(), 1, 2, 3, 7)
}

func TestDynamicSchedulingIsSeedStable(t *testing.T) {
	// The task pool hands out blocks in a nondeterministic order, but the
	// factorization result is order-independent within a phase: every
	// run must verify, whatever interleaving occurred.
	for run := 0; run < 5; run++ {
		inst, err := cholesky.New().Prepare(core.Config{Threads: 8, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestInstanceReuseFails(t *testing.T) {
	inst, err := cholesky.New().Prepare(core.Config{Threads: 1, Kit: lockfree.New(), Scale: core.ScaleTest})
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

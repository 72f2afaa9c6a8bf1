package lucont_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/workloads/lucommon"
	"repro/internal/workloads/lucont"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, lucont.New())
}

func TestSeedsFactorCorrectly(t *testing.T) {
	for _, seed := range []int64{0, 3, -9} {
		inst, err := lucont.New().Prepare(core.Config{Threads: 5, Kit: classic.New(), Scale: core.ScaleTest, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestVerifyCatchesCorruption perturbs one entry of L by a relative 1e-6
// after a correct factorization, once inside the first diagonal block and
// once in the last block row: Verify must reject both.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, at := range [][2]int{{1, 0}, {127, 1}} {
		inst, err := lucont.New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: core.ScaleTest, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
		*inst.(*lucommon.LU).At(at[0], at[1]) *= 1 + 1e-6
		if err := inst.Verify(); err == nil {
			t.Fatalf("Verify accepted L[%d][%d] off by a relative 1e-6", at[0], at[1])
		}
	}
}

func TestInstanceReuseFails(t *testing.T) {
	inst, err := lucont.New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
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

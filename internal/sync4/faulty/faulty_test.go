package faulty

import (
	"sync"
	"testing"

	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// TestDeterministicSchedule: two injectors with the same plan must make
// identical decisions for the same per-site operation sequence, and a
// different seed must produce a different schedule. This is the property
// reproducing a failure from its seed rests on.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []Decision {
		inj := New(Plan{Seed: seed, Delay: 0.2, SpuriousWake: 0.5, Flap: 0.3, Record: 4096})
		kit := inj.Wrap(lockfree.New())
		q := kit.NewQueue(4)
		f := kit.NewFlag()
		c := kit.NewCounter()
		for i := 0; i < 200; i++ {
			for !q.TryPut(int64(i)) {
			}
			for {
				if _, ok := q.TryGet(); ok {
					break
				}
			}
			c.Inc()
		}
		f.Set()
		f.Wait()
		return inj.Report().Decisions
	}

	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no decisions recorded; injection rates are not firing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different decision counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestDeterminismUnderConcurrency: decisions are per-(site, sequence), so
// the multiset of decisions for a fixed per-site op count must not depend
// on thread interleaving.
func TestDeterminismUnderConcurrency(t *testing.T) {
	const workers, perWorker = 4, 500
	run := func() [numFaults]int64 {
		inj := New(Plan{Seed: 99, Delay: 0.1})
		kit := inj.Wrap(lockfree.New())
		c := kit.NewCounter()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		return inj.Report().Injected
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("interleaving changed the injection counts: %v vs %v", a, b)
	}
	if a[FaultDelay] == 0 {
		t.Fatal("delay faults never fired at rate 0.1 over 2000 ops")
	}
}

// TestFlapBurstBounded: consecutive spurious Try* failures per site are
// capped at FlapBurst, so FlapBurst+1 retries always reach the real
// construct — the contract the kittest fault schedules rely on.
func TestFlapBurstBounded(t *testing.T) {
	inj := New(Plan{Seed: 3, Flap: 1.0}) // always flap, capped
	kit := inj.Wrap(lockfree.New())
	q := kit.NewQueue(64)
	for i := 0; i < 50; i++ {
		ok := false
		for try := 0; try <= FlapBurst; try++ {
			if q.TryPut(int64(i)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("element %d: TryPut failed %d consecutive times on a non-full queue", i, FlapBurst+1)
		}
	}
	for i := 0; i < 50; i++ {
		ok := false
		for try := 0; try <= FlapBurst; try++ {
			if v, got := q.TryGet(); got {
				if v != int64(i) {
					t.Fatalf("FIFO violated under flap: got %d want %d", v, i)
				}
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("element %d: TryGet failed %d consecutive times on a non-empty queue", i, FlapBurst+1)
		}
	}
}

// TestZeroPlanInjectsNothing: a zero plan must be a pure pass-through.
func TestZeroPlanInjectsNothing(t *testing.T) {
	inj := New(Plan{Seed: 1})
	kit := inj.Wrap(classic.New())
	q := kit.NewQueue(2)
	q.Put(1)
	if !q.TryPut(2) {
		t.Fatal("TryPut failed with room available under a zero plan")
	}
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %d, %v; want 1, true", v, ok)
	}
	s := kit.NewStack()
	s.Push(7)
	if v, ok := s.TryPop(); !ok || v != 7 {
		t.Fatalf("TryPop = %d, %v; want 7, true", v, ok)
	}
	r := inj.Report()
	if r.Total() != 0 {
		t.Fatalf("zero plan injected %d faults", r.Total())
	}
	if r.Ops == 0 {
		t.Fatal("ops were not counted")
	}
}

// TestReportCounts: injections are counted per class and the recording
// mode is bounded by Plan.Record.
func TestReportCounts(t *testing.T) {
	inj := New(Plan{Seed: 5, Delay: 1.0, Record: 10})
	kit := inj.Wrap(lockfree.New())
	c := kit.NewCounter()
	for i := 0; i < 100; i++ {
		c.Inc()
	}
	r := inj.Report()
	if r.Injected[FaultDelay] != 100 {
		t.Fatalf("delay count = %d, want 100", r.Injected[FaultDelay])
	}
	if len(r.Decisions) != 10 {
		t.Fatalf("recorded %d decisions, want the Plan.Record bound of 10", len(r.Decisions))
	}
	if r.Decisions[0].Fault != FaultDelay || r.Decisions[0].Op != "counter-inc" {
		t.Fatalf("unexpected first decision: %+v", r.Decisions[0])
	}
}

// TestName: the decorator identifies itself like the other kit wrappers.
func TestName(t *testing.T) {
	kit := New(Plan{}).Wrap(lockfree.New())
	if got := kit.Name(); got != "lockfree+faulty" {
		t.Fatalf("Name() = %q, want lockfree+faulty", got)
	}
}

// TestNilInjectorPassthrough: Wrap on a nil injector returns the base kit
// untouched, so call sites can make wrapping conditional without branching.
func TestNilInjectorPassthrough(t *testing.T) {
	var inj *Injector
	base := classic.New()
	if kit := inj.Wrap(base); kit != base {
		t.Fatal("nil injector did not pass the kit through")
	}
}

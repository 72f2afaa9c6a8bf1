package sync4_test

import (
	"testing"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

func TestTraceNilRecorderReturnsKitUnchanged(t *testing.T) {
	kit := classic.New()
	if got := sync4.Trace(kit, nil); got != kit {
		t.Fatalf("Trace(kit, nil) wrapped the kit: %T", got)
	}
}

func TestTracedKitName(t *testing.T) {
	rec := trace.NewRecorder(4, 64)
	if got := sync4.Trace(lockfree.New(), rec).Name(); got != "lockfree+trace" {
		t.Fatalf("traced kit name = %q", got)
	}
}

// TestTracedKitsConform runs the full conformance suite over Trace-wrapped
// kits: recording events must not change construct behavior. Under -race
// this doubles as the tier-2 tracer soundness check.
func TestTracedKitsConform(t *testing.T) {
	for _, base := range []sync4.Kit{classic.New(), lockfree.New()} {
		rec := trace.NewRecorder(64, 1<<16)
		kit := sync4.Trace(base, rec)
		t.Run(kit.Name(), func(t *testing.T) { kittest.Conformance(t, kit) })
	}
}

// TestTracedCensusMatchesInstrument stacks Trace over Instrument the way the
// harness does and checks that for every construct the trace's event counts
// agree exactly with the census counters.
func TestTracedCensusMatchesInstrument(t *testing.T) {
	var c sync4.Counters
	rec := trace.NewRecorder(4, 1<<12)
	kit := sync4.Trace(sync4.Instrument(classic.New(), &c, false), rec)

	bar := kit.NewBarrier(1)
	bar.Wait()
	bar.Wait()

	lock := kit.NewLock()
	lock.Lock()
	lock.Unlock()

	ctr := kit.NewCounter()
	ctr.Add(5)
	ctr.Inc()
	ctr.Load() // reads are not events
	ctr.Store(0)

	acc := kit.NewAccumulator()
	acc.Add(1.5)
	acc.Load()

	mm := kit.NewMinMax()
	mm.Update(3)
	mm.Min()

	flag := kit.NewFlag()
	flag.Set()
	flag.Wait()
	flag.IsSet()

	q := kit.NewQueue(2)
	q.Put(1)
	if !q.TryPut(2) {
		t.Fatal("TryPut into non-full queue failed")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut into full queue succeeded")
	}
	if _, ok := q.TryGet(); !ok {
		t.Fatal("TryGet from non-empty queue failed")
	}

	st := kit.NewStack()
	st.Push(7)
	if _, ok := st.TryPop(); !ok {
		t.Fatal("TryPop from non-empty stack failed")
	}
	if _, ok := st.TryPop(); ok {
		t.Fatal("TryPop from empty stack succeeded")
	}

	cap := rec.Snapshot()
	if cap.TotalDropped() != 0 {
		t.Fatalf("dropped %d events", cap.TotalDropped())
	}
	snap := c.Snapshot()
	if err := sync4.CheckTraceCensus(cap, snap); err != nil {
		t.Error(err)
	}
	// Releases are traced even though the census has no counter for them.
	if n := cap.OpCounts()[trace.OpLockRelease]; n != 1 {
		t.Errorf("lock-release count = %d, want 1", n)
	}
	// Sanity-floor the absolute numbers so a silently dead census cannot
	// make the comparison pass vacuously.
	if snap.BarrierWaits != 2 || snap.RMWOps() != 4 || snap.QueuePuts != 2 {
		t.Errorf("census looks dead: %+v", snap)
	}
}

// TestTracedZeroAlloc is the acceptance bound on tracing overhead: with
// tracing enabled, recording an operation's event allocates zero bytes.
func TestTracedZeroAlloc(t *testing.T) {
	if kittest.RaceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc holds in non-race builds")
	}
	rec := trace.NewRecorder(4, 1<<16)
	kit := sync4.Trace(lockfree.New(), rec)
	ctr := kit.NewCounter()
	acc := kit.NewAccumulator()
	q := kit.NewQueue(8)

	cases := []struct {
		name string
		op   func()
	}{
		{"counter-inc", func() { ctr.Inc() }},
		{"accum-add", func() { acc.Add(1) }},
		{"queue-roundtrip", func() { q.Put(1); q.TryGet() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(500, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op with tracing enabled, want 0", tc.name, allocs)
		}
	}
}

package sync4_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

// TestInstrumentedKitsConform and TestTracedKitsConform are the two entry
// points of observedKitsConform: the counting rows and the recording rows.
func TestInstrumentedKitsConform(t *testing.T) { observedKitsConform(t, false) }

func TestTracedKitsConform(t *testing.T) { observedKitsConform(t, true) }

// observedKitsConform runs the full kit conformance suite over the observing
// decorator's four configurations on both kits: Instrument, Instrument timed
// (it shares the plain kit's name, so it runs as "<kit>+instr#01"), Trace,
// and Trace over Instrument (the shape every splash4d job runs). Observing
// must not change construct behavior. Each recording row gets a fresh
// recorder large enough to keep every event and fails if it dropped any, so
// every operation really reaches the recorder; under -race that makes the
// recording rows the tier-2 tracer soundness check. The fused row's trace
// must also match its census exactly.
func observedKitsConform(t *testing.T, recording bool) {
	// A lane belongs to one OS thread and a pass can run on a single one,
	// so every lane holds a whole pass; the spare lanes cover threads
	// beyond GOMAXPROCS that run Go code.
	lanes := runtime.GOMAXPROCS(0) + 8
	for _, base := range []sync4.Kit{classic.New(), lockfree.New()} {
		var capacity int
		if recording {
			capacity = passEvents(t, base)
		}
		for _, row := range []struct{ instr, timed, traced bool }{
			{instr: true},
			{instr: true, timed: true},
			{traced: true},
			{instr: true, traced: true},
		} {
			if row.traced != recording {
				continue
			}
			var c sync4.Counters
			var rec *trace.Recorder
			kit := base
			if row.instr {
				kit = sync4.Instrument(kit, &c, row.timed)
			}
			if row.traced {
				rec = trace.NewRecorder(lanes, capacity)
				kit = sync4.Trace(kit, rec)
			}
			t.Run(kit.Name(), func(t *testing.T) {
				kittest.Conformance(t, kit)
				if rec == nil {
					return
				}
				capture := rec.Snapshot()
				if capture.TotalDropped() != 0 {
					t.Fatalf("recorder dropped %d events", capture.TotalDropped())
				}
				if capture.Events() == 0 {
					t.Fatal("recorder captured no events")
				}
				if row.instr {
					if err := sync4.CheckTraceCensus(capture, c.Snapshot()); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// passEvents sizes a recorder lane for one conformance pass over base: the
// events an instrumented pass records (its census plus one release per lock
// acquisition), with a quarter again and 4096 to spare, because scheduling
// changes some conformance tests' operation counts from pass to pass.
func passEvents(t *testing.T, base sync4.Kit) int {
	var c sync4.Counters
	kit := sync4.Instrument(base, &c, false)
	t.Run(kit.Name()+"#census", func(t *testing.T) { kittest.Conformance(t, kit) })
	s := c.Snapshot()
	n := int(s.Total() + s.LockAcquires)
	return n + n/4 + 4096
}

// TestComposedKitConforms runs the conformance suite over a mixed kit.
func TestComposedKitConforms(t *testing.T) {
	kit := sync4.Compose("mixed", classic.New(), sync4.Overrides{
		Barriers:     lockfree.New(),
		Counters:     lockfree.New(),
		Accumulators: lockfree.New(),
	})
	if kit.Name() != "mixed" {
		t.Fatalf("composed kit name = %q", kit.Name())
	}
	kittest.Conformance(t, kit)
}

// TestInstrumentCountsEvents is the census oracle: one call sequence touching
// every construct operation, including reads and failed polls, with the
// census and the per-op trace counts it must produce written out by hand.
// It runs under Instrument, Trace and Trace over Instrument on both kits.
func TestInstrumentCountsEvents(t *testing.T) {
	wantCensus := sync4.Snapshot{
		LockAcquires: 2, BarrierWaits: 2, CounterOps: 2, AccumOps: 1, MinMaxOps: 2,
		FlagSets: 1, FlagWaits: 1, QueuePuts: 2, QueueGets: 2, QueueGetFails: 1,
		StackPushes: 1, StackPops: 1, StackPopFails: 1,
		LocksCreated: 1, BarriersCreated: 1, CountersCreated: 1, AccumsCreated: 1,
		MinMaxCreated: 1, FlagsCreated: 1, QueuesCreated: 1, StacksCreated: 1,
	}
	var wantOps [trace.NumOps]int64
	wantOps[trace.OpBarrierWait] = 2
	wantOps[trace.OpLockAcquire] = 2
	wantOps[trace.OpLockRelease] = 2
	wantOps[trace.OpRMW] = 5
	wantOps[trace.OpFlagSet] = 1
	wantOps[trace.OpFlagWait] = 1
	wantOps[trace.OpQueuePut] = 2
	wantOps[trace.OpQueueGet] = 2
	wantOps[trace.OpStackPush] = 1
	wantOps[trace.OpStackPop] = 1

	for _, base := range []sync4.Kit{classic.New(), lockfree.New()} {
		for _, mode := range []string{"instr", "trace", "instr+trace"} {
			t.Run(base.Name()+"+"+mode, func(t *testing.T) {
				var c sync4.Counters
				rec := trace.NewRecorder(4, 1<<10)
				kit := base
				if mode != "trace" {
					kit = sync4.Instrument(kit, &c, false)
				}
				if mode != "instr" {
					kit = sync4.Trace(kit, rec)
				}
				runCensusScript(t, kit)

				if mode != "trace" {
					if got := c.Snapshot(); got != wantCensus {
						t.Errorf("census\n got %+v\nwant %+v", got, wantCensus)
					}
					if mode == "instr+trace" {
						if err := sync4.CheckTraceCensus(rec.Snapshot(), c.Snapshot()); err != nil {
							t.Error(err)
						}
					}
					c.Reset()
					if s := c.Snapshot(); s.Total() != 0 || s.QueueGetFails != 0 || s.LocksCreated != 1 {
						t.Errorf("Reset must zero the operation counts and keep construction counts: %+v", s)
					}
				}
				var want [trace.NumOps]int64
				if mode != "instr" {
					want = wantOps
				}
				capture := rec.Snapshot()
				if capture.TotalDropped() != 0 {
					t.Fatalf("dropped %d events", capture.TotalDropped())
				}
				if got := capture.OpCounts(); got != want {
					t.Errorf("trace op counts\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// runCensusScript drives every operation of every construct once or twice:
// RMWs, blocking calls, lock releases, successful and failed polls, and the
// pure reads and resets that are neither counted nor recorded.
func runCensusScript(t *testing.T, kit sync4.Kit) {
	t.Helper()
	bar := kit.NewBarrier(1)
	bar.Wait()
	bar.Wait()

	l := kit.NewLock()
	l.Lock()
	l.Unlock()
	l.Lock()
	l.Unlock()

	ctr := kit.NewCounter()
	ctr.Inc()
	ctr.Add(5)
	ctr.Load()
	ctr.Store(0)

	acc := kit.NewAccumulator()
	acc.Add(1.5)
	acc.Load()
	acc.Store(0)

	mm := kit.NewMinMax()
	mm.Update(3)
	mm.Update(-3)
	mm.Min()
	mm.Max()
	mm.Reset()

	f := kit.NewFlag()
	f.Set()
	f.Wait()
	f.IsSet()

	q := kit.NewQueue(2)
	q.Put(1)
	if !q.TryPut(2) {
		t.Fatal("TryPut into non-full queue failed")
	}
	if q.TryPut(3) {
		t.Fatal("TryPut into full queue succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, ok := q.TryGet(); !ok {
			t.Fatal("TryGet from non-empty queue failed")
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet from empty queue succeeded")
	}
	q.Len()

	st := kit.NewStack()
	st.Push(9)
	if _, ok := st.TryPop(); !ok {
		t.Fatal("TryPop from non-empty stack failed")
	}
	if _, ok := st.TryPop(); ok {
		t.Fatal("TryPop from empty stack succeeded")
	}
	st.Len()
}

// TestInstrumentTimedRecordsBlockedTime makes each blocking construct wait
// for a party that sleeps first, and requires the timed census to show at
// least half of that sleep as blocked time, counted only and traced.
func TestInstrumentTimedRecordsBlockedTime(t *testing.T) {
	const nap, floor = 20 * time.Millisecond, 10 * time.Millisecond
	// after runs fn on a new goroutine once nap has passed and returns a
	// join for it.
	after := func(fn func()) func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(nap)
			fn()
		}()
		return wg.Wait
	}
	for _, base := range []sync4.Kit{classic.New(), lockfree.New()} {
		for _, traced := range []bool{false, true} {
			var c sync4.Counters
			kit := sync4.Instrument(base, &c, true)
			if traced {
				kit = sync4.Trace(kit, trace.NewRecorder(4, 1<<10))
			}
			t.Run(kit.Name(), func(t *testing.T) {
				bar := kit.NewBarrier(2)
				join := after(bar.Wait)
				bar.Wait()
				join()

				l := kit.NewLock()
				l.Lock()
				join = after(l.Unlock)
				l.Lock() // blocks until the napping goroutine releases the lock
				l.Unlock()
				join()

				f := kit.NewFlag()
				join = after(f.Set)
				f.Wait()
				join()

				s := c.Snapshot()
				if s.BarrierWaits != 2 || s.LockAcquires != 2 || s.FlagWaits != 1 {
					t.Fatalf("census lost a blocking call: %+v", s)
				}
				for name, ns := range map[string]int64{
					"BarrierNanos": s.BarrierNanos, "LockNanos": s.LockNanos, "FlagNanos": s.FlagNanos,
				} {
					if time.Duration(ns) < floor {
						t.Errorf("%s = %v after a %v wait, want >= %v", name, time.Duration(ns), nap, floor)
					}
				}
			})
		}
	}
}

func TestComposeOverridesSelectively(t *testing.T) {
	// A kit whose counters come from lockfree but locks from classic:
	// verify the construct families behave (counters work, locks work)
	// and that unspecified families fall back to the base.
	base := classic.New()
	kit := sync4.Compose("partial", base, sync4.Overrides{Counters: lockfree.New()})
	ctr := kit.NewCounter()
	if got := ctr.Add(7); got != 7 {
		t.Fatalf("counter Add = %d, want 7", got)
	}
	l := kit.NewLock()
	l.Lock()
	l.Unlock()
	q := kit.NewQueue(2)
	q.Put(1)
	if v, ok := q.TryGet(); !ok || v != 1 {
		t.Fatalf("queue round-trip failed: (%d, %v)", v, ok)
	}
}

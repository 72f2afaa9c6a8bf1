package dessim_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dessim"
	"repro/internal/harness"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
	"repro/internal/workloads/fft"
	"repro/internal/workloads/radix"
)

func TestFromCaptureSynthetic(t *testing.T) {
	c := &trace.Capture{
		Lanes: [][]trace.Event{
			{
				{Start: 100, End: 200, Obj: 1, Op: trace.OpRMW},
				{Start: 500, End: 900, Obj: 0, Op: trace.OpBarrierWait},
				{Start: 900, End: 950, Obj: 2, Op: trace.OpLockAcquire},
				{Start: 960, End: 970, Obj: 2, Op: trace.OpLockRelease},
			},
			{
				{Start: 150, End: 900, Obj: 0, Op: trace.OpBarrierWait},
				{Start: 1000, End: 1010, Obj: 3, Op: trace.OpQueuePut},
			},
		},
		Dropped: []int64{0, 0},
		Objects: []trace.Object{
			{Family: trace.FamilyBarrier}, {Family: trace.FamilyCounter},
			{Family: trace.FamilyLock}, {Family: trace.FamilyQueue},
		},
	}
	tr, err := dessim.FromCapture(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Fatalf("converted %d threads, want 2", len(tr))
	}
	// Lane 0 starts at the global t0 (100): no leading compute, then the
	// 300ns gap to the barrier. The release emits no Lock event, but the
	// 10ns held between acquire-end and release-start surfaces as compute.
	want0 := []dessim.Event{
		{Kind: dessim.RMW, Obj: 0},
		{Kind: dessim.Compute, Dur: 300 * time.Nanosecond},
		{Kind: dessim.Barrier, Obj: 0},
		{Kind: dessim.Lock, Obj: 0},
		{Kind: dessim.Compute, Dur: 10 * time.Nanosecond},
	}
	if len(tr[0]) != len(want0) {
		t.Fatalf("thread 0 has %d events, want %d: %+v", len(tr[0]), len(want0), tr[0])
	}
	for i, w := range want0 {
		if tr[0][i] != w {
			t.Errorf("thread 0 event %d = %+v, want %+v", i, tr[0][i], w)
		}
	}
	// Lane 1 leads with 50ns of compute (150 - t0) and the queue put
	// becomes a shared-cell RMW with a fresh dense id.
	want1 := []dessim.Event{
		{Kind: dessim.Compute, Dur: 50 * time.Nanosecond},
		{Kind: dessim.Barrier, Obj: 0},
		{Kind: dessim.Compute, Dur: 100 * time.Nanosecond},
		{Kind: dessim.RMW, Obj: 1},
	}
	for i, w := range want1 {
		if tr[1][i] != w {
			t.Errorf("thread 1 event %d = %+v, want %+v", i, tr[1][i], w)
		}
	}
	if _, err := dessim.Simulate(tr, dessim.IceLakeLike(), "lockfree"); err != nil {
		t.Fatalf("synthetic replay: %v", err)
	}
}

func TestFromCaptureRejectsLossyInput(t *testing.T) {
	if _, err := dessim.FromCapture(nil); err == nil {
		t.Error("nil capture accepted")
	}
	lossy := &trace.Capture{
		Lanes:   [][]trace.Event{{{Start: 1, End: 2, Op: trace.OpRMW}}},
		Dropped: []int64{3},
	}
	if _, err := dessim.FromCapture(lossy); err == nil {
		t.Error("capture with drops accepted")
	}
}

// TestCapturedRunRoundTrip is the tentpole's end-to-end acceptance: run real
// workloads under tracing, check the capture's census agrees exactly with
// sync4.Instrument, convert it with FromCapture, and replay it through the
// simulator. The replayed trace must carry the same per-construct event
// counts and simulate without deadlock.
func TestCapturedRunRoundTrip(t *testing.T) {
	benches := []core.Benchmark{fft.New(), radix.New()}
	kits := []func() sync4.Kit{
		func() sync4.Kit { return classic.New() },
		func() sync4.Kit { return lockfree.New() },
	}
	for _, bench := range benches {
		for _, mk := range kits {
			kit := mk()
			t.Run(bench.Name()+"/"+kit.Name(), func(t *testing.T) {
				rec := trace.NewRecorder(8, 1<<16)
				res, err := harness.Run(bench, core.Config{
					Threads: 4, Kit: kit, Scale: core.ScaleTest, Seed: 1,
				}, harness.Options{Reps: 1, Verify: true, Instrument: true, Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				if res.Trace == nil {
					t.Fatal("no capture")
				}
				if d := res.Trace.TotalDropped(); d != 0 {
					t.Fatalf("capture dropped %d events; raise capacity", d)
				}

				// Trace census == instrument census, per construct.
				s := res.Sync
				if err := sync4.CheckTraceCensus(res.Trace, s); err != nil {
					t.Error(err)
				}
				if s.BarrierWaits == 0 {
					t.Error("census saw no barriers; workload not exercising the kit?")
				}

				// Convert and recount: the replay trace must preserve the
				// per-construct totals (locks fold acquire+release into one).
				tr, err := dessim.FromCapture(res.Trace)
				if err != nil {
					t.Fatal(err)
				}
				var kinds [6]int64
				for _, evs := range tr {
					for _, ev := range evs {
						kinds[ev.Kind]++
					}
				}
				wantRMW := s.RMWOps() + s.QueuePuts + s.QueueGets + s.StackPushes + s.StackPops
				if kinds[dessim.Barrier] != s.BarrierWaits ||
					kinds[dessim.Lock] != s.LockAcquires ||
					kinds[dessim.RMW] != wantRMW ||
					kinds[dessim.FlagSet] != s.FlagSets ||
					kinds[dessim.FlagWait] != s.FlagWaits {
					t.Fatalf("replay counts diverge: barrier %d/%d lock %d/%d rmw %d/%d flags %d+%d/%d+%d",
						kinds[dessim.Barrier], s.BarrierWaits,
						kinds[dessim.Lock], s.LockAcquires,
						kinds[dessim.RMW], wantRMW,
						kinds[dessim.FlagSet], kinds[dessim.FlagWait], s.FlagSets, s.FlagWaits)
				}

				// And the schedule is replayable: the simulation terminates
				// without a participation deadlock.
				sim, err := dessim.Simulate(tr, dessim.IceLakeLike(), kit.Name())
				if err != nil {
					t.Fatal(err)
				}
				if sim.Makespan <= 0 {
					t.Fatalf("replayed makespan = %v", sim.Makespan)
				}
			})
		}
	}
}

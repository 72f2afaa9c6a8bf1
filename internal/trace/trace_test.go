package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRecorderBasics(t *testing.T) {
	r := trace.NewRecorder(4, 64)
	bar := r.RegisterObject(trace.FamilyBarrier)
	ctr := r.RegisterObject(trace.FamilyCounter)
	if bar == ctr {
		t.Fatalf("object ids collide: %d", bar)
	}

	s := r.Now()
	r.Record(trace.OpBarrierWait, bar, s)
	r.Record(trace.OpRMW, ctr, r.Now())
	r.Record(trace.OpRMW, ctr, r.Now())

	c := r.Snapshot()
	if c.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", c.Events())
	}
	if c.TotalDropped() != 0 {
		t.Fatalf("TotalDropped() = %d, want 0", c.TotalDropped())
	}
	counts := c.OpCounts()
	if counts[trace.OpBarrierWait] != 1 || counts[trace.OpRMW] != 2 {
		t.Fatalf("OpCounts = %v", counts)
	}
	if len(c.Objects) != 2 || c.Objects[0].Family != trace.FamilyBarrier ||
		c.Objects[1].Family != trace.FamilyCounter {
		t.Fatalf("Objects = %+v", c.Objects)
	}
	for _, lane := range c.Lanes {
		for _, ev := range lane {
			if ev.End < ev.Start {
				t.Fatalf("event ends before it starts: %+v", ev)
			}
		}
	}
}

func TestRecorderDropAccounting(t *testing.T) {
	r := trace.NewRecorder(1, 2)
	obj := r.RegisterObject(trace.FamilyCounter)
	for i := 0; i < 5; i++ {
		r.Record(trace.OpRMW, obj, r.Now())
	}
	c := r.Snapshot()
	if c.Events() != 2 {
		t.Fatalf("Events() = %d, want capacity 2", c.Events())
	}
	if c.TotalDropped() != 3 {
		t.Fatalf("TotalDropped() = %d, want 3", c.TotalDropped())
	}
}

func TestRecorderReset(t *testing.T) {
	r := trace.NewRecorder(2, 8)
	obj := r.RegisterObject(trace.FamilyLock)
	r.Record(trace.OpLockAcquire, obj, r.Now())
	time.Sleep(time.Millisecond)
	r.Reset()

	if c := r.Snapshot(); c.Events() != 0 || c.TotalDropped() != 0 {
		t.Fatalf("post-reset capture not empty: events=%d dropped=%d",
			c.Events(), c.TotalDropped())
	}
	// Offsets restart near zero and object ids continue past the reset.
	start := r.Now()
	if start > int64(500*time.Millisecond) {
		t.Fatalf("post-reset Now() = %v, epoch not re-armed", time.Duration(start))
	}
	if next := r.RegisterObject(trace.FamilyLock); next != obj+1 {
		t.Fatalf("object id after reset = %d, want %d", next, obj+1)
	}
	r.Record(trace.OpLockAcquire, obj, start)
	if c := r.Snapshot(); c.Events() != 1 {
		t.Fatalf("recording after reset lost: events=%d", c.Events())
	}
}

// TestRecorderRecycle reuses one recorder for many unrelated runs, each on
// OS threads the recorder has never seen (a goroutine that exits while
// locked takes its thread with it). After Recycle the recorder must be
// indistinguishable from a fresh one — object ids from 0, an empty capture,
// every lane claimable — where Reset alone would keep the first round's
// lane claims and lose every later round's events to NoLane.
func TestRecorderRecycle(t *testing.T) {
	const lanes, perThread, rounds = 2, 5, 120
	r := trace.NewRecorder(lanes, 8)
	for round := 0; round < rounds; round++ {
		bar := r.RegisterObject(trace.FamilyBarrier)
		ctr := r.RegisterObject(trace.FamilyCounter)
		if bar != 0 || ctr != 1 {
			t.Fatalf("round %d: object ids %d,%d, want 0,1 as on a fresh recorder", round, bar, ctr)
		}
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		ready.Add(lanes)
		for w := 0; w < lanes; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread() // never unlocked: the thread dies with the goroutine
				ready.Done()
				<-start
				for i := 0; i < perThread; i++ {
					r.Record(trace.OpRMW, ctr, r.Now())
				}
			}()
		}
		ready.Wait()
		close(start)
		wg.Wait()

		c := r.Snapshot()
		if c.Events() != lanes*perThread || c.TotalDropped() != 0 || len(c.Lanes) != lanes {
			t.Fatalf("round %d: events=%d dropped=%d (noLane=%d) lanes=%d, want %d/0/%d",
				round, c.Events(), c.TotalDropped(), c.NoLane, len(c.Lanes), lanes*perThread, lanes)
		}
		if len(c.Objects) != 2 || c.Objects[1] != (trace.Object{Family: trace.FamilyCounter}) {
			t.Fatalf("round %d: registry %+v, want the round's own two objects", round, c.Objects)
		}

		r.Recycle()
		if c := r.Snapshot(); c.Events() != 0 || c.TotalDropped() != 0 || len(c.Lanes) != 0 || len(c.Objects) != 0 {
			t.Fatalf("round %d: recycled recorder not empty: events=%d dropped=%d lanes=%d objects=%d",
				round, c.Events(), c.TotalDropped(), len(c.Lanes), len(c.Objects))
		}
		if n := r.Now(); n > int64(500*time.Millisecond) {
			t.Fatalf("round %d: post-recycle Now() = %v, epoch not re-armed", round, time.Duration(n))
		}
	}
}

// TestRecorderPinnedLanes drives the recorder the way the harness does:
// every worker pinned to its OS thread. Each worker's events must land in
// one lane, in start order, with nothing lost.
func TestRecorderPinnedLanes(t *testing.T) {
	const workers, perWorker = 4, 200
	r := trace.NewRecorder(workers, perWorker)
	obj := r.RegisterObject(trace.FamilyCounter)

	// Gate so all workers are pinned concurrently (a sequential schedule
	// could reuse one OS thread, merging lanes).
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	ready.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unpin := trace.PinWorker(0)
			defer unpin()
			ready.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				r.Record(trace.OpRMW, obj, r.Now())
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()

	c := r.Snapshot()
	if got := c.Events() + int(c.TotalDropped()); got != workers*perWorker {
		t.Fatalf("events+dropped = %d, want %d", got, workers*perWorker)
	}
	if c.TotalDropped() != 0 {
		t.Fatalf("pinned run dropped %d events", c.TotalDropped())
	}
	if len(c.Lanes) != workers {
		t.Fatalf("claimed %d lanes, want %d", len(c.Lanes), workers)
	}
	for li, lane := range c.Lanes {
		if len(lane) != perWorker {
			t.Fatalf("lane %d holds %d events, want %d (lanes not 1:1 with workers)",
				li, len(lane), perWorker)
		}
		for i := 1; i < len(lane); i++ {
			if lane[i].Start < lane[i-1].Start {
				t.Fatalf("lane %d not start-ordered at %d", li, i)
			}
		}
	}
}

// TestRecorderLaneExhaustion claims more OS threads than lanes; the
// overflow threads' events must be counted, not silently vanish.
func TestRecorderLaneExhaustion(t *testing.T) {
	r := trace.NewRecorder(1, 64)
	obj := r.RegisterObject(trace.FamilyCounter)

	// All three goroutines must be pinned at once — otherwise a sequential
	// schedule can reuse one OS thread for all of them and legitimately
	// share the single lane.
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	ready.Add(3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ready.Done()
			<-start
			for i := 0; i < 10; i++ {
				r.Record(trace.OpRMW, obj, r.Now())
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()

	c := r.Snapshot()
	if got := c.Events() + int(c.TotalDropped()); got != 30 {
		t.Fatalf("events+dropped = %d, want 30", got)
	}
	if c.NoLane == 0 {
		t.Fatalf("expected no-lane drops with 3 threads over 1 lane; capture: events=%d noLane=%d",
			c.Events(), c.NoLane)
	}
}

// TestRecordZeroAlloc is the tentpole's steady-state guarantee: recording
// an event allocates nothing.
func TestRecordZeroAlloc(t *testing.T) {
	if kittest.RaceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc holds in non-race builds")
	}
	r := trace.NewRecorder(2, 1<<14)
	obj := r.RegisterObject(trace.FamilyCounter)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(trace.OpRMW, obj, r.Now())
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v bytes/op, want 0", allocs)
	}
	// Dropping (full lane) must not allocate either.
	small := trace.NewRecorder(1, 1)
	sobj := small.RegisterObject(trace.FamilyCounter)
	allocs = testing.AllocsPerRun(1000, func() {
		small.Record(trace.OpRMW, sobj, small.Now())
	})
	if allocs != 0 {
		t.Fatalf("dropping Record allocates %v bytes/op, want 0", allocs)
	}
}

// syntheticCapture builds a fixed two-lane capture used by the phase,
// histogram and golden-file tests. Lane timelines (ns offsets):
//
//	lane 0: rmw[100,150] barrier[200,1000] rmw[1200,1250] barrier[2000,3000]
//	lane 1: barrier[150,1000] lock-acq[1100,1600] lock-rel[1610,1615] barrier[1700,3000]
func syntheticCapture() *trace.Capture {
	return &trace.Capture{
		Epoch:    time.Unix(0, 0),
		Capacity: 16,
		Lanes: [][]trace.Event{
			{
				{Start: 100, End: 150, Obj: 1, Op: trace.OpRMW},
				{Start: 200, End: 1000, Obj: 0, Op: trace.OpBarrierWait},
				{Start: 1200, End: 1250, Obj: 1, Op: trace.OpRMW},
				{Start: 2000, End: 3000, Obj: 0, Op: trace.OpBarrierWait},
			},
			{
				{Start: 150, End: 1000, Obj: 0, Op: trace.OpBarrierWait},
				{Start: 1100, End: 1600, Obj: 2, Op: trace.OpLockAcquire},
				{Start: 1610, End: 1615, Obj: 2, Op: trace.OpLockRelease},
				{Start: 1700, End: 3000, Obj: 0, Op: trace.OpBarrierWait},
			},
		},
		Dropped: []int64{0, 0},
		Objects: []trace.Object{
			{Family: trace.FamilyBarrier, Seq: 0},
			{Family: trace.FamilyCounter, Seq: 0},
			{Family: trace.FamilyLock, Seq: 0},
		},
	}
}

func TestPhases(t *testing.T) {
	c := syntheticCapture()
	phases := trace.Phases(c)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2 (two barrier episodes): %+v", len(phases), phases)
	}
	// Episode 0 completes at max(1000, 1000) = 1000; episode 1 at 3000.
	if phases[0].Start != 0 || phases[0].End != 1000 {
		t.Errorf("phase 0 spans [%d, %d], want [0, 1000]", phases[0].Start, phases[0].End)
	}
	if phases[1].Start != 1000 || phases[1].End != 3000 {
		t.Errorf("phase 1 spans [%d, %d], want [1000, 3000]", phases[1].Start, phases[1].End)
	}
	if phases[0].Events != 3 || phases[1].Events != 5 {
		t.Errorf("phase events = %d, %d, want 3, 5", phases[0].Events, phases[1].Events)
	}
	// Phase 0 blocked: barriers 800 + 850; phase 1: lock 500 + barriers 1000 + 1300.
	if phases[0].Blocked != 1650 {
		t.Errorf("phase 0 blocked = %d, want 1650", phases[0].Blocked)
	}
	if phases[1].Blocked != 2800 {
		t.Errorf("phase 1 blocked = %d, want 2800", phases[1].Blocked)
	}
}

func TestPhasesNoBarriers(t *testing.T) {
	c := &trace.Capture{
		Lanes: [][]trace.Event{{
			{Start: 10, End: 20, Obj: 0, Op: trace.OpRMW},
			{Start: 30, End: 90, Obj: 0, Op: trace.OpRMW},
		}},
		Dropped: []int64{0},
		Objects: []trace.Object{{Family: trace.FamilyCounter}},
	}
	phases := trace.Phases(c)
	if len(phases) != 1 || phases[0].End != 90 || phases[0].Events != 2 {
		t.Fatalf("barrier-free capture phases = %+v, want one phase to 90", phases)
	}
}

func TestBlocked(t *testing.T) {
	bs := trace.Blocked(syntheticCapture())
	// Blocking events: 4 barrier waits (800, 850, 1000, 1300) + 1 lock (500).
	if bs.Total.N() != 5 {
		t.Fatalf("total blocked n = %d, want 5", bs.Total.N())
	}
	if got := bs.Total.Sum(); got != 800+850+1000+1300+500 {
		t.Fatalf("total blocked sum = %d", got)
	}
	if h := bs.ByOp[trace.OpBarrierWait]; h == nil || h.N() != 4 {
		t.Fatalf("barrier histogram = %v", h)
	}
	if h := bs.ByOp[trace.OpLockAcquire]; h == nil || h.N() != 1 || h.Max() != 500 {
		t.Fatalf("lock histogram = %v", h)
	}
	if _, ok := bs.ByOp[trace.OpLockRelease]; ok {
		t.Fatalf("non-blocking op grew a histogram")
	}
}

// checkWaitSum holds Waits to its invariant: imbalance plus release is the
// capture's barrier blocked time, to the nanosecond.
func checkWaitSum(t *testing.T, c *trace.Capture) trace.WaitSplit {
	t.Helper()
	w := trace.Waits(c)
	var split int64
	for i := range w.Imbalance {
		split += w.Imbalance[i] + w.Release[i]
	}
	var blocked int64
	if h := trace.Blocked(c).ByOp[trace.OpBarrierWait]; h != nil {
		blocked = h.Sum()
	}
	if len(w.Imbalance) != len(w.Release) || split != blocked {
		t.Fatalf("imbalance+release = %d ns over %d/%d waits, barrier blocked time = %d ns",
			split, len(w.Imbalance), len(w.Release), blocked)
	}
	return w
}

func sorted(xs []int64) []int64 {
	xs = append([]int64(nil), xs...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

func TestWaits(t *testing.T) {
	ev := func(start, end int64, obj uint32, op trace.Op) trace.Event {
		return trace.Event{Start: start, End: end, Obj: obj, Op: op}
	}
	cases := []struct {
		name                string
		lanes               [][]trace.Event
		imbalance, release  []int64
		early               int
		hold, handoff, wake []int64
	}{{
		// Episode 0's last arrival is lane 0 at 200, episode 1's at 2000;
		// lane 1 holds the lock for 10 ns, uncontended.
		name:      "synthetic",
		lanes:     syntheticCapture().Lanes,
		imbalance: []int64{0, 50, 0, 300},
		release:   []int64{800, 800, 1000, 1000},
		hold:      []int64{10},
	}, {
		// Lane 1 leaves episode 0 at 180, before lane 0 arrives at 200.
		name: "early departure",
		lanes: [][]trace.Event{
			{ev(200, 300, 0, trace.OpBarrierWait), ev(400, 500, 0, trace.OpBarrierWait)},
			{ev(100, 180, 0, trace.OpBarrierWait), ev(450, 500, 0, trace.OpBarrierWait)},
		},
		imbalance: []int64{0, 100, 50, 0},
		release:   []int64{100, -20, 50, 50},
		early:     1,
	}, {
		// Two barrier objects interleave; lane 2 never recorded episode 1.
		name: "objects and a missing lane",
		lanes: [][]trace.Event{
			{ev(0, 100, 0, trace.OpBarrierWait), ev(110, 200, 1, trace.OpBarrierWait), ev(210, 300, 0, trace.OpBarrierWait)},
			{ev(90, 100, 0, trace.OpBarrierWait), ev(190, 200, 1, trace.OpBarrierWait), ev(290, 300, 0, trace.OpBarrierWait)},
			{ev(50, 100, 0, trace.OpBarrierWait)},
		},
		imbalance: []int64{90, 0, 40, 80, 0, 80, 0},
		release:   []int64{10, 10, 10, 10, 10, 10, 10},
	}, {
		// Lane 0 holds [10, 50); lane 1 waits from 20 and gets the lock 20 ns
		// after lane 0 starts to release it; lane 2 finds it free.
		name: "lock handoff",
		lanes: [][]trace.Event{
			{ev(0, 10, 0, trace.OpLockAcquire), ev(50, 55, 0, trace.OpLockRelease)},
			{ev(20, 70, 0, trace.OpLockAcquire), ev(80, 85, 0, trace.OpLockRelease)},
			{ev(90, 95, 0, trace.OpLockAcquire), ev(95, 96, 0, trace.OpLockRelease)},
		},
		hold:    []int64{0, 10, 40},
		handoff: []int64{20},
	}, {
		// The first Set starts at 100; a wait that began after it is not a
		// wake, and a later Set moves nothing.
		name: "flag wake",
		lanes: [][]trace.Event{
			{ev(100, 105, 0, trace.OpFlagSet), ev(300, 305, 0, trace.OpFlagSet)},
			{ev(50, 130, 0, trace.OpFlagWait), ev(200, 201, 0, trace.OpFlagWait)},
			{ev(0, 160, 0, trace.OpFlagWait)},
		},
		wake: []int64{30, 60},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &trace.Capture{Lanes: tc.lanes, Dropped: make([]int64, len(tc.lanes))}
			w := checkWaitSum(t, c)
			for _, f := range []struct {
				name      string
				got, want []int64
			}{
				{"imbalance", w.Imbalance, tc.imbalance},
				{"release", w.Release, tc.release},
				{"hold", w.Hold, tc.hold},
				{"handoff", w.Handoff, tc.handoff},
				{"wake", w.Wake, tc.wake},
			} {
				if f.want == nil {
					continue
				}
				if got := sorted(f.got); !slices.Equal(got, sorted(f.want)) {
					t.Errorf("%s = %v, want %v", f.name, got, sorted(f.want))
				}
			}
			if w.EarlyDepartures != tc.early {
				t.Errorf("EarlyDepartures = %d, want %d", w.EarlyDepartures, tc.early)
			}
		})
	}
}

// TestWaitsOnRecordedRuns splits real captures of both kits: pinned workers
// cross a barrier and take a lock. The split must sum exactly, and no lane
// may leave an episode before its last arrival.
func TestWaitsOnRecordedRuns(t *testing.T) {
	const workers, episodes = 2, 200
	for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
		t.Run(kit.Name(), func(t *testing.T) {
			r := trace.NewRecorder(workers, 4*episodes)
			tk := sync4.Trace(kit, r)
			b, l := tk.NewBarrier(workers), tk.NewLock()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer trace.PinWorker(w)()
					for e := 0; e < episodes; e++ {
						b.Wait()
						l.Lock()
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			c := r.Snapshot()
			if c.TotalDropped() != 0 || len(c.Lanes) != workers {
				t.Fatalf("capture: %d lanes, %d dropped", len(c.Lanes), c.TotalDropped())
			}
			w := checkWaitSum(t, c)
			if len(w.Release) != workers*episodes || w.EarlyDepartures != 0 {
				t.Fatalf("%d barrier waits split, %d early departures; want %d and 0",
					len(w.Release), w.EarlyDepartures, workers*episodes)
			}
			if len(w.Hold) != workers*episodes {
				t.Fatalf("%d lock holds, want %d", len(w.Hold), workers*episodes)
			}
		})
	}
}

func TestTimelineAndBlockedTables(t *testing.T) {
	c := syntheticCapture()
	var buf bytes.Buffer
	if err := trace.TimelineTable(c, "synthetic").Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("blocked-share")) {
		t.Fatalf("timeline table missing header:\n%s", buf.String())
	}
	buf.Reset()
	if err := trace.BlockedTable(c, "synthetic").Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"barrier-wait", "lock-acquire", "total"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("blocked table missing %q:\n%s", want, buf.String())
		}
	}
}

// TestChromeGolden locks the exporter's byte-exact output: field order,
// microsecond units, metadata rows. Refresh with `go test ./internal/trace
// -run Golden -update` after intentional format changes.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, syntheticCapture(), "synthetic/test"); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("golden output fails validation: %v", err)
	}
}

func TestValidateChrome(t *testing.T) {
	bad := []struct {
		name, json string
	}{
		{"not json", "{"},
		{"no traceEvents", `{"displayTimeUnit":"ms"}`},
		{"unnamed event", `{"traceEvents":[{"ph":"X","ts":1,"dur":2}]}`},
		{"bad phase", `{"traceEvents":[{"name":"e","ph":"Q","ts":1}]}`},
		{"negative ts", `{"traceEvents":[{"name":"e","ph":"X","ts":-1,"dur":2}]}`},
		{"missing dur", `{"traceEvents":[{"name":"e","ph":"X","ts":1}]}`},
	}
	for _, tc := range bad {
		if err := trace.ValidateChrome([]byte(tc.json)); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	ok := `{"traceEvents":[{"name":"m","ph":"M","ts":0},{"name":"e","ph":"X","ts":0,"dur":0.5}],"displayTimeUnit":"ms"}`
	if err := trace.ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestSampler(t *testing.T) {
	s := trace.NewSampler()
	s.Start()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<16))
	}
	runtime.GC()
	runtime.KeepAlive(sink)
	got := s.Stop()
	if got.AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d, want >= 4MiB of tracked allocation", got.AllocBytes)
	}
	if got.GCCycles == 0 {
		t.Errorf("GCCycles = 0, want >= 1 after runtime.GC")
	}
	if got.String() == "" {
		t.Errorf("empty String()")
	}
	// A second bracket reuses the sampler and must report a fresh delta,
	// not the cumulative totals.
	s.Start()
	fresh := s.Stop()
	if fresh.AllocBytes > got.AllocBytes && got.AllocBytes > 0 {
		t.Errorf("second sample (%d) not a delta of the first (%d)", fresh.AllocBytes, got.AllocBytes)
	}
}

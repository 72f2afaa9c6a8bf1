package harness_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

// fakeBench is a controllable benchmark for harness tests.
type fakeBench struct {
	name       string
	prepareErr error
	runErr     error
	verifyErr  error
	sleep      time.Duration
	prepares   *int
	runs       *int
	verifies   *int
	useKit     bool
	onRun      func() // called inside every Instance.Run, if set
	onVerify   func() // called inside every Instance.Verify, if set
}

func (f *fakeBench) Name() string        { return f.name }
func (f *fakeBench) Description() string { return "fake benchmark for harness tests" }

func (f *fakeBench) Prepare(cfg core.Config) (core.Instance, error) {
	if f.prepares != nil {
		*f.prepares++
	}
	if f.prepareErr != nil {
		return nil, f.prepareErr
	}
	inst := &fakeInstance{b: f}
	if f.useKit {
		inst.ctr = cfg.Kit.NewCounter()
		inst.threads = cfg.Threads
	}
	return inst, nil
}

type fakeInstance struct {
	b       *fakeBench
	ctr     interface{ Inc() int64 }
	threads int
}

func (i *fakeInstance) Run() error {
	if i.b.runs != nil {
		*i.b.runs++
	}
	if i.b.onRun != nil {
		i.b.onRun()
	}
	if i.b.sleep > 0 {
		time.Sleep(i.b.sleep)
	}
	if i.ctr != nil {
		core.Parallel(i.threads, func(int) { i.ctr.Inc() })
	}
	return i.b.runErr
}

func (i *fakeInstance) Verify() error {
	if i.b.onVerify != nil {
		i.b.onVerify()
	}
	return i.b.verifyErr
}

func TestRunRepetitions(t *testing.T) {
	var prepares, runs int
	b := &fakeBench{name: "fake", prepares: &prepares, runs: &runs, sleep: time.Millisecond}
	res, err := harness.Run(b, core.Config{Threads: 2, Kit: classic.New()},
		harness.Options{Reps: 3, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if prepares != 5 || runs != 5 {
		t.Fatalf("prepares=%d runs=%d, want 5 each (3 reps + 2 warmup)", prepares, runs)
	}
	if res.Times.N() != 3 {
		t.Fatalf("recorded %d samples, want 3 (warmup discarded)", res.Times.N())
	}
	if res.Times.Min() < time.Millisecond {
		t.Fatalf("measured %v, below the 1ms sleep", res.Times.Min())
	}
	if res.Bench != "fake" || res.Kit != "classic" || res.Threads != 2 {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	if res.HasSync {
		t.Fatal("census collected without Instrument")
	}
}

func TestRunDefaultsToOneRep(t *testing.T) {
	var runs int
	b := &fakeBench{name: "fake", runs: &runs}
	res, err := harness.Run(b, core.Config{Threads: 1, Kit: classic.New()}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 || res.Times.N() != 1 {
		t.Fatalf("runs=%d samples=%d, want 1 each", runs, res.Times.N())
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	sentinel := errors.New("boom")
	cases := []struct {
		name string
		b    *fakeBench
		opt  harness.Options
	}{
		{"prepare", &fakeBench{name: "p", prepareErr: sentinel}, harness.Options{}},
		{"run", &fakeBench{name: "r", runErr: sentinel}, harness.Options{}},
		{"verify", &fakeBench{name: "v", verifyErr: sentinel}, harness.Options{Verify: true}},
		{"warmup", &fakeBench{name: "w", runErr: sentinel}, harness.Options{Warmup: 1}},
	}
	for _, c := range cases {
		_, err := harness.Run(c.b, core.Config{Threads: 1, Kit: classic.New()}, c.opt)
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: error %v does not wrap sentinel", c.name, err)
		}
	}
}

func TestRunSkipsVerifyWhenDisabled(t *testing.T) {
	b := &fakeBench{name: "v", verifyErr: errors.New("should not surface")}
	if _, err := harness.Run(b, core.Config{Threads: 1, Kit: classic.New()}, harness.Options{}); err != nil {
		t.Fatalf("verify ran despite Verify=false: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	b := &fakeBench{name: "bad"}
	if _, err := harness.Run(b, core.Config{Threads: 0, Kit: classic.New()}, harness.Options{}); err == nil {
		t.Fatal("accepted Threads=0")
	}
	if _, err := harness.Run(b, core.Config{Threads: 1}, harness.Options{}); err == nil {
		t.Fatal("accepted nil kit")
	}
}

func TestQuiesceGCRestoresTarget(t *testing.T) {
	prev := debug.SetGCPercent(100)
	defer debug.SetGCPercent(prev)

	b := &fakeBench{name: "gc"}
	if _, err := harness.Run(b, core.Config{Threads: 1, Kit: classic.New()},
		harness.Options{Reps: 2, QuiesceGC: true}); err != nil {
		t.Fatal(err)
	}
	// The harness must restore the GC target it found.
	if got := debug.SetGCPercent(100); got != 100 {
		t.Fatalf("GC percent left at %d after QuiesceGC runs", got)
	}
}

// garbage is where TestQuiesceGCCollectsDuringVerify drops its allocations,
// so the compiler cannot elide them.
var garbage []byte

// TestQuiesceGCCollectsDuringVerify: QuiesceGC turns the collector off for
// the timed Run only. A Verify that allocates 256 MiB of garbage must see
// collections, on the inline path and on the watchdog's.
func TestQuiesceGCCollectsDuringVerify(t *testing.T) {
	prev := debug.SetGCPercent(100)
	defer debug.SetGCPercent(prev)

	for _, timeout := range []time.Duration{0, time.Minute} {
		var cycles uint32
		b := &fakeBench{name: "gc", onVerify: func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.NumGC
			for i := 0; i < 256; i++ {
				garbage = make([]byte, 1<<20)
			}
			runtime.ReadMemStats(&ms)
			cycles = ms.NumGC - before
		}}
		opt := harness.Options{Reps: 1, Verify: true, QuiesceGC: true, RepTimeout: timeout}
		if _, err := harness.Run(b, core.Config{Threads: 1, Kit: classic.New()}, opt); err != nil {
			t.Fatal(err)
		}
		garbage = nil
		if cycles == 0 {
			t.Errorf("RepTimeout %v: no collection while Verify allocated 256 MiB", timeout)
		}
	}
}

func TestInstrumentCollectsCensus(t *testing.T) {
	b := &fakeBench{name: "kit", useKit: true}
	res, err := harness.Run(b, core.Config{Threads: 4, Kit: lockfree.New()},
		harness.Options{Reps: 2, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasSync {
		t.Fatal("no census collected")
	}
	// The census is per-repetition (reset between reps): 4 Incs.
	if got := res.Sync.CounterOps; got != 4 {
		t.Fatalf("CounterOps = %d, want 4 (last rep only)", got)
	}
	if res.Kit != "lockfree" {
		t.Fatalf("result kit %q leaked the instrumentation wrapper", res.Kit)
	}
}

func TestPairRunsBothKits(t *testing.T) {
	b := &fakeBench{name: "pair", useKit: true}
	rc, rl, err := harness.Pair(b, core.Config{Threads: 2}, classic.New(), lockfree.New(), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Kit != "classic" || rl.Kit != "lockfree" {
		t.Fatalf("pair kits = %q, %q", rc.Kit, rl.Kit)
	}
}

func TestRunContextCancelBeforeStart(t *testing.T) {
	var prepares, runs int
	b := &fakeBench{name: "queued", prepares: &prepares, runs: &runs}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the job is canceled while still queued
	_, err := harness.RunContext(ctx, b, core.Config{Threads: 1, Kit: classic.New()},
		harness.Options{Reps: 3, Warmup: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if prepares != 0 || runs != 0 {
		t.Fatalf("prepares=%d runs=%d after pre-run cancellation, want 0 each", prepares, runs)
	}
}

func TestRunContextCancelMidRep(t *testing.T) {
	var runs int
	ctx, cancel := context.WithCancel(context.Background())
	// The first repetition cancels the context from inside the timed
	// region: the repetition is abandoned (its goroutine finishes on its
	// own), no sample is recorded, and no further rep may start.
	b := &fakeBench{name: "inflight", runs: &runs, onRun: cancel, sleep: 20 * time.Millisecond}
	res, err := harness.RunContext(ctx, b, core.Config{Threads: 1, Kit: classic.New()},
		harness.Options{Reps: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if runs != 1 {
		t.Fatalf("started %d reps after mid-run cancellation, want exactly 1", runs)
	}
	if res.Times.N() != 0 {
		t.Fatalf("result carries %d samples; the abandoned rep must not be measured", res.Times.N())
	}
}

func TestRunContextCancelDuringWarmup(t *testing.T) {
	var runs int
	ctx, cancel := context.WithCancel(context.Background())
	b := &fakeBench{name: "warm", runs: &runs, onRun: cancel}
	_, err := harness.RunContext(ctx, b, core.Config{Threads: 1, Kit: classic.New()},
		harness.Options{Reps: 2, Warmup: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if runs != 1 {
		t.Fatalf("ran %d times, want 1 (first warmup only)", runs)
	}
}

func TestRunCollectsRegionsTraceAndRuntime(t *testing.T) {
	b := &fakeBench{name: "traced", useKit: true, sleep: time.Millisecond}
	rec := trace.NewRecorder(8, 1<<12)
	res, err := harness.Run(b, core.Config{Threads: 4, Kit: lockfree.New()},
		harness.Options{Reps: 2, Warmup: 1, Instrument: true, Trace: rec, SampleRuntime: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regions) != 2 {
		t.Fatalf("captured %d regions, want one per measured rep (2)", len(res.Regions))
	}
	for i, reg := range res.Regions {
		if reg.Dur() < time.Millisecond {
			t.Errorf("region %d lasted %v, below the 1ms sleep", i, reg.Dur())
		}
		if !reg.End.After(reg.Start) {
			t.Errorf("region %d ends before it starts", i)
		}
	}
	if res.Trace == nil {
		t.Fatal("no trace capture collected")
	}
	if res.Trace.TotalDropped() != 0 {
		t.Fatalf("trace dropped %d events", res.Trace.TotalDropped())
	}
	// The capture covers the last repetition only (reset between reps) and
	// must agree with the instrument census: 4 counter Incs -> 4 RMW events.
	counts := res.Trace.OpCounts()
	if counts[trace.OpRMW] != res.Sync.CounterOps || counts[trace.OpRMW] != 4 {
		t.Fatalf("trace RMW = %d, census CounterOps = %d, want 4 each",
			counts[trace.OpRMW], res.Sync.CounterOps)
	}
	if res.Runtime == nil {
		t.Fatal("no runtime sample collected")
	}
	if res.Kit != "lockfree" {
		t.Fatalf("result kit %q leaked a wrapper name", res.Kit)
	}
}

// Package harness runs suite benchmarks under controlled conditions and
// collects timing samples and synchronization-event censuses. It is the
// measurement layer behind the CLI, the report generator and bench_test.go.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/trace"
)

// Options controls how a benchmark is measured.
type Options struct {
	// Reps is the number of measured repetitions. Each repetition gets a
	// freshly Prepared instance. Defaults to 1 when <= 0.
	Reps int
	// Warmup repetitions run before measurement and are discarded.
	Warmup int
	// Verify runs Instance.Verify after every repetition and fails the
	// run on the first verification error.
	Verify bool
	// QuiesceGC forces a collection before each timed repetition and
	// disables the collector during it, restoring the previous GC target
	// as soon as Run returns, so Verify runs with the collector on. This
	// trades memory headroom for lower variance — the Go stand-in for the
	// bare-metal runs in the paper.
	QuiesceGC bool
	// Instrument wraps the kit so synchronization events are counted.
	// The census of the last repetition is stored in Result.Sync.
	Instrument bool
	// TimedSync additionally records wall time spent in blocking
	// synchronization calls (implies Instrument).
	TimedSync bool
	// Trace, when non-nil, wraps the kit with sync4.Trace so every
	// synchronization operation is recorded into this recorder. For the
	// duration of the run the core worker hook pins workers to OS threads
	// (trace.PinWorker) so trace lanes map 1:1 onto logical threads. The
	// recorder is reset before each measured repetition; the capture of
	// the last repetition lands in Result.Trace.
	Trace *trace.Recorder
	// SampleRuntime brackets each measured repetition's timed region with
	// runtime/metrics reads; the last repetition's delta (scheduler
	// latency, GC pauses and cycles, heap allocation) lands in
	// Result.Runtime.
	SampleRuntime bool
	// RepTimeout arms the stall watchdog: a repetition (warmup or
	// measured) that exceeds this deadline is abandoned and the run fails
	// with an error wrapping ErrStalled, with a structured StallDiagnosis
	// in Result.Stall. When Trace is also set, the recorder's atomic
	// progress counters serve as the heartbeat that classifies the stall
	// as deadlock or livelock. 0 disables the watchdog.
	RepTimeout time.Duration
}

func (o Options) reps() int {
	if o.Reps <= 0 {
		return 1
	}
	return o.Reps
}

// Result is the outcome of measuring one (benchmark, config) pair.
type Result struct {
	Bench   string
	Kit     string
	Threads int
	Scale   core.Scale
	Times   *stats.Sample
	// Sync holds the synchronization-event census of the last measured
	// repetition; it is the zero Snapshot unless Options.Instrument (or
	// TimedSync) was set.
	Sync sync4.Snapshot
	// HasSync reports whether Sync was collected.
	HasSync bool
	// Regions holds each measured repetition's timed-region bracket on the
	// monotonic clock (the same instants Times was computed from), so
	// external samplers and trace captures can be aligned with the runs.
	Regions []Region
	// Trace is the synchronization trace of the last measured repetition;
	// nil unless Options.Trace was set.
	Trace *trace.Capture
	// Runtime is the runtime/metrics delta over the last measured
	// repetition's timed region; nil unless Options.SampleRuntime was set.
	Runtime *trace.RuntimeSample
	// Stall is the watchdog's diagnosis of the repetition that exceeded
	// Options.RepTimeout; nil unless the run failed with ErrStalled.
	Stall *StallDiagnosis
}

// Region is one timed repetition's [Start, End] bracket. Both instants
// carry Go's monotonic clock reading, so Dur is immune to wall-clock steps.
type Region struct {
	Start, End time.Time
}

// Dur returns the region's length.
func (r Region) Dur() time.Duration { return r.End.Sub(r.Start) }

// pinRefs refcounts trace-pinning across concurrent traced runs: the worker
// hook is global, so the first traced run arms it and the last one disarms
// it. The hook itself (trace.PinWorker) is stateless and identical for every
// run, which is what makes sharing one installation sound.
var pinRefs struct {
	sync.Mutex
	n int
}

func armPinning() {
	pinRefs.Lock()
	defer pinRefs.Unlock()
	pinRefs.n++
	if pinRefs.n == 1 {
		core.SetWorkerHook(trace.PinWorker)
	}
}

func disarmPinning() {
	pinRefs.Lock()
	defer pinRefs.Unlock()
	pinRefs.n--
	if pinRefs.n == 0 {
		core.SetWorkerHook(nil)
	}
}

// Run measures b under cfg. Every repetition prepares a fresh instance, so
// instances never see reuse; inputs are identical across repetitions because
// Prepare derives them from cfg.Seed.
func Run(b core.Benchmark, cfg core.Config, opt Options) (Result, error) {
	return RunContext(context.Background(), b, cfg, opt)
}

// RunContext is Run with cancellation: the context is consulted before every
// warmup and measured repetition, and — when the context is cancellable or
// Options.RepTimeout is set — *during* each repetition as well: the
// repetition runs on its own goroutine and cancellation returns control to
// the caller immediately instead of after the repetition. The suite
// workloads have no preemption points, so an abandoned repetition's worker
// goroutines finish on their own and the instance is discarded; the leak is
// bounded by one repetition and happens only on the failure paths. On
// cancellation the error wraps ctx.Err() and the Result carries the
// repetitions completed so far; on a watchdog stall the error wraps
// ErrStalled and Result.Stall carries the diagnosis.
func RunContext(ctx context.Context, b core.Benchmark, cfg core.Config, opt Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{
		Bench:   b.Name(),
		Kit:     cfg.Kit.Name(),
		Threads: cfg.Threads,
		Scale:   cfg.Scale,
		Times:   &stats.Sample{},
	}

	var counters *sync4.Counters
	runCfg := cfg
	if opt.Instrument || opt.TimedSync {
		counters = new(sync4.Counters)
		runCfg.Kit = sync4.Instrument(cfg.Kit, counters, opt.TimedSync)
	}
	if opt.Trace != nil {
		// Trace over Instrument extends that wrapper into one layer, which
		// counts and records exactly the workload's calls, keeping the
		// trace census and Result.Sync comparable.
		runCfg.Kit = sync4.Trace(runCfg.Kit, opt.Trace)
		armPinning()
		defer disarmPinning()
	}
	var sampler *trace.Sampler
	if opt.SampleRuntime {
		sampler = trace.NewSampler()
	}

	for rep := 0; rep < opt.Warmup; rep++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("%s/%s warmup rep %d: %w", b.Name(), cfg.Kit.Name(), rep, err)
		}
		if opt.Trace != nil {
			// Reset before warmups too: the watchdog heartbeat counts
			// events per repetition, and lanes must not fill with warmup
			// traffic.
			opt.Trace.Reset()
		}
		if _, _, diag, err := runOnce(ctx, b, runCfg, opt, false, nil); err != nil {
			res.Stall = locateStall(diag, res, "warmup", rep)
			return res, fmt.Errorf("%s/%s warmup rep %d: %w", b.Name(), cfg.Kit.Name(), rep, err)
		}
	}
	for rep := 0; rep < opt.reps(); rep++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("%s/%s rep %d: %w", b.Name(), cfg.Kit.Name(), rep, err)
		}
		if counters != nil {
			counters.Reset()
		}
		if opt.Trace != nil {
			// Quiescent between repetitions: discard warmup/previous-rep
			// events so the final capture covers exactly the last rep.
			opt.Trace.Reset()
		}
		region, rs, diag, err := runOnce(ctx, b, runCfg, opt, opt.Verify, sampler)
		if err != nil {
			res.Stall = locateStall(diag, res, "measure", rep)
			return res, fmt.Errorf("%s/%s rep %d: %w", b.Name(), cfg.Kit.Name(), rep, err)
		}
		res.Times.Add(region.Dur())
		res.Regions = append(res.Regions, region)
		res.Runtime = rs
	}
	if counters != nil {
		res.Sync = counters.Snapshot()
		res.HasSync = true
	}
	if opt.Trace != nil {
		res.Trace = opt.Trace.Snapshot()
	}
	return res, nil
}

// locateStall stamps a watchdog diagnosis with the repetition that
// produced it. Nil-safe: the non-stall error paths pass diag == nil.
func locateStall(diag *StallDiagnosis, res Result, phase string, rep int) *StallDiagnosis {
	if diag == nil {
		return nil
	}
	diag.Bench, diag.Kit, diag.Phase, diag.Rep = res.Bench, res.Kit, phase, rep
	return diag
}

// runOnce prepares one instance, times Run (timedRun), and optionally
// verifies.
func runOnce(ctx context.Context, b core.Benchmark, cfg core.Config, opt Options, verify bool, sampler *trace.Sampler) (Region, *trace.RuntimeSample, *StallDiagnosis, error) {
	inst, err := b.Prepare(cfg)
	if err != nil {
		return Region{}, nil, nil, fmt.Errorf("prepare: %w", err)
	}
	region, rs, diag, err := timedRun(ctx, inst, opt, sampler)
	if err != nil {
		return region, rs, diag, fmt.Errorf("run: %w", err)
	}
	if verify {
		if err := inst.Verify(); err != nil {
			return region, rs, nil, fmt.Errorf("verify: %w", err)
		}
	}
	return region, rs, nil, nil
}

// timedRun runs inst.Run. The returned Region brackets exactly that call;
// when sampler is non-nil the same bracket is measured with
// runtime/metrics. With a cancellable context or an armed watchdog the Run
// is supervised on its own goroutine (runGuarded); otherwise it runs
// inline. Under QuiesceGC the collector is off for exactly that call: it is
// restored as soon as Run returns or is abandoned, so Verify runs with it
// on.
func timedRun(ctx context.Context, inst core.Instance, opt Options, sampler *trace.Sampler) (Region, *trace.RuntimeSample, *StallDiagnosis, error) {
	if opt.QuiesceGC {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	if sampler != nil {
		sampler.Start()
	}
	var region Region
	var diag *StallDiagnosis
	var err error
	if opt.RepTimeout > 0 || ctx.Done() != nil {
		region, diag, err = runGuarded(ctx, inst, opt)
	} else {
		start := time.Now()
		err = inst.Run()
		region = Region{Start: start, End: time.Now()}
	}
	var rs *trace.RuntimeSample
	if sampler != nil {
		s := sampler.Stop()
		rs = &s
	}
	return region, rs, diag, err
}

// Pair measures b under both kits with otherwise identical configuration
// and returns (classic result, lockfree result). It is the unit step of the
// paper's Splash-3 vs Splash-4 comparison.
func Pair(b core.Benchmark, cfg core.Config, classicKit, lockfreeKit sync4.Kit, opt Options) (Result, Result, error) {
	return PairContext(context.Background(), b, cfg, classicKit, lockfreeKit, opt)
}

// PairContext is Pair with cancellation, with RunContext's semantics for
// each half.
func PairContext(ctx context.Context, b core.Benchmark, cfg core.Config, classicKit, lockfreeKit sync4.Kit, opt Options) (Result, Result, error) {
	cfgC := cfg
	cfgC.Kit = classicKit
	rc, err := RunContext(ctx, b, cfgC, opt)
	if err != nil {
		return rc, Result{}, err
	}
	cfgL := cfg
	cfgL.Kit = lockfreeKit
	rl, err := RunContext(ctx, b, cfgL, opt)
	return rc, rl, err
}

// Package splash4 is a Go reproduction of Splash-4, the modernization of the
// Splash-2/3 parallel benchmark suite with lock-free constructs (Gómez-
// Hernández, Cebrian, Kaxiras, Ros — IISWC 2022). It provides:
//
//   - the fourteen suite workloads (kernels: CHOLESKY, FFT, LU in both
//     layouts, RADIX; applications: BARNES, FMM, OCEAN in both layouts,
//     RADIOSITY, RAYTRACE, VOLREND, WATER-NSQUARED, WATER-SPATIAL), each
//     written once against an abstract synchronization kit;
//   - two kits: Classic (Splash-3 style — every construct built from mutexes
//     and condition variables) and Lockfree (Splash-4 style — atomic
//     fetch-and-add counters, CAS floating-point reductions, spin flags, an
//     atomic barrier, a Vyukov MPMC queue and a Treiber stack);
//   - a measurement harness, event instrumentation, and kit composition for
//     ablation studies.
//
// Running any benchmark under both kits and comparing the times is exactly
// the Splash-3 vs Splash-4 comparison the paper makes. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the reproduced evaluation.
//
// # Quick start
//
//	bench, _ := splash4.ByName("fft")
//	cfg := splash4.Config{Threads: 8, Kit: splash4.Lockfree(), Scale: splash4.ScaleSmall}
//	res, err := splash4.Run(bench, cfg, splash4.Options{Reps: 3, Verify: true})
//	fmt.Println(res.Times.Mean())
package splash4

import (
	"context"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/faulty"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
	"repro/internal/workloads/all"
)

// Benchmark describes one suite workload; see core.Benchmark.
type Benchmark = core.Benchmark

// Instance is one prepared benchmark run; see core.Instance.
type Instance = core.Instance

// Config selects threads, kit, input scale and seed for a run.
type Config = core.Config

// Scale selects a workload's canonical input size.
type Scale = core.Scale

// Input scales.
const (
	ScaleTest    = core.ScaleTest
	ScaleSmall   = core.ScaleSmall
	ScaleDefault = core.ScaleDefault
	ScaleLarge   = core.ScaleLarge
)

// ParseScale resolves a scale name (test, small, default, large).
func ParseScale(s string) (Scale, error) { return core.ParseScale(s) }

// Kit is the synchronization toolkit abstraction; see sync4.Kit.
type Kit = sync4.Kit

// Synchronization construct interfaces, re-exported for custom kits.
type (
	// Barrier synchronizes a fixed group of participants.
	Barrier = sync4.Barrier
	// Locker is a mutual-exclusion lock.
	Locker = sync4.Locker
	// Counter is a shared integer counter.
	Counter = sync4.Counter
	// Accumulator is a shared float64 sum.
	Accumulator = sync4.Accumulator
	// MinMax tracks a stream's extremes.
	MinMax = sync4.MinMax
	// Flag is a one-shot event.
	Flag = sync4.Flag
	// Queue is a bounded MPMC FIFO of task ids.
	Queue = sync4.Queue
	// Stack is an MPMC LIFO of task ids.
	Stack = sync4.Stack
)

// SyncCounters aggregates synchronization events observed by an
// instrumented kit.
type SyncCounters = sync4.Counters

// SyncSnapshot is a plain-value copy of SyncCounters.
type SyncSnapshot = sync4.Snapshot

// Overrides selects per-construct kit replacements for Compose.
type Overrides = sync4.Overrides

// Options controls measurement; see harness.Options.
type Options = harness.Options

// Result is a measurement outcome; see harness.Result.
type Result = harness.Result

// Classic returns the Splash-3 style lock-based kit.
func Classic() Kit { return classic.New() }

// Lockfree returns the Splash-4 style atomics kit.
func Lockfree() Kit { return lockfree.New() }

// Instrument wraps kit so synchronization events are counted into c; when
// withTime is true, blocking calls also accumulate wall time. Instrument and
// Trace are one decorator: Trace over an instrumented kit adds recording to
// the same wrapper rather than stacking a second one.
func Instrument(kit Kit, c *SyncCounters, withTime bool) Kit {
	return sync4.Instrument(kit, c, withTime)
}

// TraceRecorder records per-thread synchronization events into fixed
// per-OS-thread buffers; see trace.Recorder.
type TraceRecorder = trace.Recorder

// TraceCapture is a quiescent copy of a recorder's events; see
// trace.Capture. Captures export to Chrome trace-event JSON
// (trace.WriteChrome) and replay through dessim.FromCapture.
type TraceCapture = trace.Capture

// NewTraceRecorder returns a recorder with maxLanes per-thread buffers of
// capacity events each; pass it to Options.Trace or Trace.
func NewTraceRecorder(maxLanes, capacity int) *TraceRecorder {
	return trace.NewRecorder(maxLanes, capacity)
}

// Trace wraps kit so every synchronization operation is recorded as a typed
// event in r (zero-allocation on the hot path). A nil recorder returns kit
// unchanged; a kit from Instrument is extended, not wrapped again. Most
// callers should set Options.Trace instead, which also pins workers to OS
// threads so trace lanes map 1:1 onto logical threads.
func Trace(kit Kit, r *TraceRecorder) Kit { return sync4.Trace(kit, r) }

// Compose builds a kit that takes each construct family from the override
// kit when given, and from base otherwise (ablation studies).
func Compose(name string, base Kit, o Overrides) Kit { return sync4.Compose(name, base, o) }

// Suite returns every benchmark in canonical order (kernels, then apps).
func Suite() []Benchmark { return all.Suite() }

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) { return all.ByName(name) }

// Names returns the benchmark names in suite order.
func Names() []string { return all.Names() }

// Run measures b under cfg; see harness.Run.
func Run(b Benchmark, cfg Config, opt Options) (Result, error) { return harness.Run(b, cfg, opt) }

// RunContext is Run with cooperative cancellation: cancellation abandons
// the in-flight repetition (its result is discarded, its goroutines
// finish on their own) and prevents further ones, so long measurement
// campaigns abort promptly even mid-repetition; see harness.RunContext.
func RunContext(ctx context.Context, b Benchmark, cfg Config, opt Options) (Result, error) {
	return harness.RunContext(ctx, b, cfg, opt)
}

// Pair measures b under the classic and lockfree kits with otherwise
// identical configuration — the suite's headline comparison.
func Pair(b Benchmark, cfg Config, opt Options) (classicRes, lockfreeRes Result, err error) {
	return harness.Pair(b, cfg, Classic(), Lockfree(), opt)
}

// Fault injection (robustness testing; see docs/ROBUSTNESS.md).

// FaultPlan configures the faulty kit decorator's deterministic fault
// schedule; see faulty.Plan.
type FaultPlan = faulty.Plan

// FaultInjector decorates kits with seeded schedule perturbation; see
// faulty.Injector.
type FaultInjector = faulty.Injector

// FaultReport summarizes the faults an injector delivered; see
// faulty.Report.
type FaultReport = faulty.Report

// NewFaultInjector builds an injector for plan; wrap a kit with its Wrap
// method. The same seed always yields the same per-site fault schedule.
func NewFaultInjector(plan FaultPlan) *FaultInjector { return faulty.New(plan) }

// MildFaults is the semantics-preserving preset (delays, stragglers,
// spurious wakeups — no contract weakening): any workload must produce
// identical results under it.
func MildFaults(seed int64) FaultPlan { return faulty.Mild(seed) }

// AggressiveFaults adds transient Try* full/empty flapping for
// retry-tolerant callers.
func AggressiveFaults(seed int64) FaultPlan { return faulty.Aggressive(seed) }

// Watchdog surface (Options.RepTimeout; see docs/ROBUSTNESS.md).

// ErrStalled is returned (wrapped) when a repetition exceeds
// Options.RepTimeout; the Result carries the diagnosis in Result.Stall.
var ErrStalled = harness.ErrStalled

// StallDiagnosis is the watchdog's structured post-mortem of a stalled
// repetition; see harness.StallDiagnosis.
type StallDiagnosis = harness.StallDiagnosis

// StallKind classifies a stall from the trace heartbeat.
type StallKind = harness.StallKind

// Stall classifications.
const (
	StallDeadlock = harness.StallDeadlock
	StallLivelock = harness.StallLivelock
	StallUnknown  = harness.StallUnknown
)

// Parallel runs body on threads workers with thread ids in [0, threads).
// Custom workloads can use it the way the built-in ones do.
func Parallel(threads int, body func(tid int)) { core.Parallel(threads, body) }

// BlockRange statically partitions n items among threads workers.
func BlockRange(tid, threads, n int) (lo, hi int) { return core.BlockRange(tid, threads, n) }

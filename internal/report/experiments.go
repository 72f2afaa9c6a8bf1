package report

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dessim"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
	"repro/internal/workloads/all"
)

// e5MachineModel reproduces the simulated-architecture experiment (the gem5
// Ice Lake role, and the EPYC comparison) with the discrete-event machine
// model: each benchmark runs once on the classic kit, its measured
// synchronization census is synthesized into one per-thread event trace
// (spread over the number of RMW objects the workload actually built), and
// that trace is replayed on both modeled machines under both kits, so the
// machines and the kits are compared on the same input.
func e5MachineModel(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	t := cfg.threads()
	machines := []dessim.Machine{dessim.IceLakeLike(), dessim.EpycLike()}
	// The table is machine-major, so each machine's rows and normalized
	// times are collected before it is emitted.
	rows := make([][][]any, len(machines))
	norms := make([][]float64, len(machines))
	for _, b := range suite {
		res, err := harness.Run(b, core.Config{Threads: t, Kit: classic.New(), Scale: cfg.Scale, Seed: cfg.Seed},
			cfg.options(true, true))
		if err != nil {
			return err
		}
		s := res.Sync
		// Aggregate compute budget: wall time times the host
		// parallelism actually available during the run.
		par := runtime.GOMAXPROCS(0)
		if par > t {
			par = t
		}
		compute := res.Times.Mean() * time.Duration(par)
		if blocked := time.Duration(s.BlockedNanos()); blocked < compute {
			compute -= blocked
		}
		trace := dessim.FromSnapshot(s, t, compute, int(s.RMWCells()))
		for m, machine := range machines {
			rc, err := dessim.Simulate(trace, machine, "classic")
			if err != nil {
				return err
			}
			rl, err := dessim.Simulate(trace, machine, "lockfree")
			if err != nil {
				return err
			}
			norm := float64(rl.Makespan) / float64(rc.Makespan)
			norms[m] = append(norms[m], norm)
			rows[m] = append(rows[m], []any{machine.Name, b.Name(), us(rc.Makespan), us(rl.Makespan),
				fmt.Sprintf("%.3f", norm), pct(norm)})
		}
	}

	tab := results.New("E5",
		fmt.Sprintf("modeled machines (gem5 substitute, discrete-event replay), %d threads, scale=%s", t, cfg.Scale),
		"machine", "benchmark", "classic(sim)", "lockfree(sim)", "normalized", "reduction")
	for m, machine := range machines {
		for _, row := range rows[m] {
			tab.AddRow(row...)
		}
		mean := stats.GeoMean(norms[m])
		tab.AddRow(machine.Name, "GEOMEAN", "", "", fmt.Sprintf("%.3f", mean), pct(mean))
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// AblationKits returns the kit ladder of the E7 ablation: the classic
// baseline, classic with only the read-modify-write constructs made atomic,
// classic with only the barrier made atomic, and the full lockfree kit.
func AblationKits() []sync4.Kit {
	lf := lockfree.New()
	cl := classic.New()
	return []sync4.Kit{
		cl,
		sync4.Compose("atomics-only", cl, sync4.Overrides{
			Counters:     lf,
			Accumulators: lf,
			MinMaxes:     lf,
		}),
		sync4.Compose("barrier-only", cl, sync4.Overrides{Barriers: lf}),
		lf,
	}
}

// ablationBenchmarks are the workloads the ablation runs on: one dominated
// by barriers (ocean), one by reductions and barriers (fft), one by the
// prefix/permute barrier pattern (radix), and one by per-molecule merges
// (water-nsquared).
var ablationBenchmarks = []string{"fft", "radix", "ocean", "water-nsquared"}

// e7Ablation reproduces the design-choice ablation called out in DESIGN.md:
// how much of the lockfree kit's gain comes from atomic RMWs alone versus
// the atomic barrier alone.
func e7Ablation(cfg Config) error {
	t := cfg.threads()
	tab := results.New("E7",
		fmt.Sprintf("construct ablation, %d threads, scale=%s", t, cfg.Scale),
		"benchmark", "kit", "time", "normalized-to-classic")

	names := cfg.Benchmarks
	if len(names) == 0 {
		names = ablationBenchmarks
	}
	for _, name := range names {
		b, err := all.ByName(name)
		if err != nil {
			return err
		}
		var baseline *stats.Sample
		for _, kit := range AblationKits() {
			res, err := harness.Run(b, core.Config{Threads: t, Kit: kit, Scale: cfg.Scale, Seed: cfg.Seed},
				cfg.options(false, false))
			if err != nil {
				return err
			}
			if baseline == nil {
				baseline = res.Times
			}
			tab.AddRow(name, kit.Name(), us(res.Times.Mean()),
				fmt.Sprintf("%.3f", stats.Normalized(res.Times, baseline)))
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e8SyncShare characterizes where the time goes: the share of aggregate
// thread time each benchmark spends blocked inside synchronization
// constructs, per kit, plus the distribution of individual blocked episodes
// (from the event tracer's capture folded into log-spaced histograms). The
// share explains *why* the lock-free rewrite helps where it does; the
// quantiles separate many-short-waits from few-long-waits, which the sum
// cannot.
func e8SyncShare(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	t := cfg.threads()
	tab := results.New("E8",
		fmt.Sprintf("synchronization share of thread time, %d threads, scale=%s", t, cfg.Scale),
		"benchmark", "kit", "wall", "blocked(sum)", "sync-share", "blk-p50", "blk-p95", "blk-max")

	for _, b := range suite {
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			opt := cfg.options(true, true)
			opt.Trace = trace.NewRecorder(2*t, 1<<16)
			res, err := harness.Run(b, core.Config{Threads: t, Kit: kit, Scale: cfg.Scale, Seed: cfg.Seed},
				opt)
			if err != nil {
				return err
			}
			blocked := time.Duration(res.Sync.BlockedNanos())
			aggregate := res.Times.Mean() * time.Duration(t)
			share := 0.0
			if aggregate > 0 {
				share = float64(blocked) / float64(aggregate)
				if share > 1 {
					share = 1
				}
			}
			p50, p95, max := "-", "-", "-"
			if h := trace.Blocked(res.Trace).Total; h.N() > 0 {
				p50 = us(time.Duration(h.Quantile(0.50))).String()
				p95 = us(time.Duration(h.Quantile(0.95))).String()
				max = us(time.Duration(h.Max())).String()
			}
			tab.AddRow(b.Name(), kit.Name(), us(res.Times.Mean()), us(blocked),
				fmt.Sprintf("%.1f%%", share*100), p50, p95, max)
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e9GCCensus characterizes the Go-specific fidelity cost this reproduction
// documents in DESIGN.md: allocation, garbage-collector and scheduler
// activity inside each benchmark's timed region, measured with the
// runtime/metrics sampler bracketing exactly the harness's timed region.
// Workloads are designed to preallocate, so healthy rows show near-zero
// allocation and no collections; the scheduler-latency quantiles expose
// interference from the Go scheduler that MemStats-style censuses miss.
// GC quiescing is deliberately off here — this experiment measures the
// collector, the others suppress it.
func e9GCCensus(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	t := cfg.threads()
	tab := results.New("E9",
		fmt.Sprintf("runtime census (timed region), %d threads, scale=%s", t, cfg.Scale),
		"benchmark", "kit", "wall", "alloc-bytes", "gc-cycles", "gc-pauses", "pause-p50", "sched-p50", "sched-p95")

	for _, b := range suite {
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			res, err := harness.Run(b, core.Config{Threads: t, Kit: kit, Scale: cfg.Scale, Seed: cfg.Seed},
				harness.Options{Reps: 1, Warmup: 1, SampleRuntime: true})
			if err != nil {
				return err
			}
			rs := res.Runtime
			tab.AddRow(b.Name(), kit.Name(), us(res.Times.Mean()),
				rs.AllocBytes, rs.GCCycles, rs.GCPauseN,
				rs.GCPauseP50.Round(time.Microsecond),
				rs.SchedP50.Round(time.Microsecond),
				rs.SchedP95.Round(time.Microsecond))
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

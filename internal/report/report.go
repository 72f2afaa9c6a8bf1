// Package report regenerates the paper's evaluation: each entry of
// Experiments reproduces one table or figure of the characterization (see
// the experiment index in DESIGN.md), renders it as an ASCII table and — when
// Config.CSVDir is set — saves it as CSV for plotting. The
// cmd/splash4-report binary is a thin flag wrapper around this package.
package report

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
)

// Config controls how the experiments are run.
type Config struct {
	// Threads is the thread count used by the fixed-thread experiments
	// (E1, E4, E5, E7, E8, E9). Zero means min(GOMAXPROCS, 64).
	Threads int
	// Sweep is the thread series for the scaling experiments (E2, E6).
	// Nil means {1, 2, 4, ..., Threads}.
	Sweep []int
	// Scale selects workload input sizes. The default (ScaleSmall) keeps
	// a full report under a few minutes; use ScaleDefault to mirror the
	// paper's inputs.
	Scale core.Scale
	// Reps is the measured repetitions per configuration (default 3).
	Reps int
	// Seed feeds workload input generation.
	Seed int64
	// Benchmarks restricts the workload set (nil = whole suite).
	Benchmarks []string
	// Out receives the rendered tables (required).
	Out io.Writer
	// CSVDir, when non-empty, also saves every table as CSV there.
	CSVDir string
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	t := runtime.GOMAXPROCS(0)
	if t > 64 {
		t = 64
	}
	if t < 2 {
		t = 2
	}
	return t
}

func (c Config) sweep() []int {
	if len(c.Sweep) > 0 {
		return c.Sweep
	}
	var s []int
	for t := 1; t <= c.threads(); t *= 2 {
		s = append(s, t)
	}
	return s
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	return 3
}

func (c Config) suite() ([]core.Benchmark, error) {
	if len(c.Benchmarks) == 0 {
		return all.Suite(), nil
	}
	var bs []core.Benchmark
	for _, name := range c.Benchmarks {
		b, err := all.ByName(name)
		if err != nil {
			return nil, err
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// options returns the standard measurement options for report runs.
func (c Config) options(instrument, timed bool) harness.Options {
	return harness.Options{
		Reps:       c.reps(),
		Warmup:     1,
		Verify:     false,
		QuiesceGC:  true,
		Instrument: instrument,
		TimedSync:  timed,
	}
}

// us rounds a duration for table cells.
func us(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

// pct renders a normalized value's reduction as a percentage cell.
func pct(norm float64) string { return fmt.Sprintf("%.1f%%", (1-norm)*100) }

// e1NormalizedTime reproduces the headline figure: normalized execution time
// of Splash-4 (lockfree) relative to Splash-3 (classic) per benchmark at a
// fixed thread count, plus the average reduction.
func e1NormalizedTime(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	t := cfg.threads()
	tab := results.New("E1",
		fmt.Sprintf("normalized execution time, %d threads, scale=%s", t, cfg.Scale),
		"benchmark", "classic", "lockfree", "normalized", "reduction")

	var norms []float64
	for _, b := range suite {
		rc, rl, err := harness.Pair(b, core.Config{Threads: t, Scale: cfg.Scale, Seed: cfg.Seed},
			classic.New(), lockfree.New(), cfg.options(false, false))
		if err != nil {
			return err
		}
		norm := stats.Normalized(rl.Times, rc.Times)
		norms = append(norms, norm)
		tab.AddRow(b.Name(), us(rc.Times.Mean()), us(rl.Times.Mean()),
			fmt.Sprintf("%.3f", norm), pct(norm))
	}
	mean := stats.GeoMean(norms)
	tab.AddRow("GEOMEAN", "", "", fmt.Sprintf("%.3f", mean), pct(mean))
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e2Scaling reproduces the scalability figure: speedup over the
// single-threaded classic run for both suites across the thread sweep.
func e2Scaling(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	sweep := cfg.sweep()
	cols := []string{"benchmark", "kit"}
	for _, t := range sweep {
		cols = append(cols, fmt.Sprintf("t=%d", t))
	}
	tab := results.New("E2",
		fmt.Sprintf("speedup vs 1-thread classic, scale=%s, threads=%v", cfg.Scale, sweep),
		cols...)

	for _, b := range suite {
		base, err := harness.Run(b, core.Config{Threads: 1, Kit: classic.New(), Scale: cfg.Scale, Seed: cfg.Seed},
			cfg.options(false, false))
		if err != nil {
			return err
		}
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			row := []any{b.Name(), kit.Name()}
			for _, t := range sweep {
				res, err := harness.Run(b, core.Config{Threads: t, Kit: kit, Scale: cfg.Scale, Seed: cfg.Seed},
					cfg.options(false, false))
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.2f", stats.Speedup(res.Times, base.Times)))
			}
			tab.AddRow(row...)
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e3Inventory reproduces the benchmark-inventory table: every workload with
// its description and role.
func e3Inventory(cfg Config) error {
	tab := results.New("E3", "suite inventory", "benchmark", "description")
	for _, b := range all.Suite() {
		tab.AddRow(b.Name(), b.Description())
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e4SyncCensus reproduces the synchronization-construct census: how many
// lock acquisitions, barrier episodes, atomic read-modify-writes, flag
// events and task operations each benchmark performs, and the time spent
// blocked in synchronization.
func e4SyncCensus(cfg Config) error {
	suite, err := cfg.suite()
	if err != nil {
		return err
	}
	t := cfg.threads()
	tab := results.New("E4",
		fmt.Sprintf("synchronization census, %d threads, scale=%s", t, cfg.Scale),
		"benchmark", "kit", "locks", "barriers", "rmw-ops", "flags", "queue+stack", "rmw-cells", "blocked")

	for _, b := range suite {
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			res, err := harness.Run(b, core.Config{Threads: t, Kit: kit, Scale: cfg.Scale, Seed: cfg.Seed},
				cfg.options(true, true))
			if err != nil {
				return err
			}
			s := res.Sync
			tab.AddRow(b.Name(), kit.Name(), s.LockAcquires, s.BarrierWaits, s.RMWOps(),
				s.FlagSets+s.FlagWaits,
				s.QueuePuts+s.QueueGets+s.StackPushes+s.StackPops,
				s.RMWCells(),
				us(time.Duration(s.BlockedNanos())))
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// e6Primitives reproduces the primitive microbenchmarks behind the ISPASS
// companion's headline (up to 9x on real machines): barrier episode latency
// and contended counter/accumulator/queue throughput for both kits across
// the thread sweep, plus the extension constructs (ticket lock, combining
// tree barrier, striped counter).
func e6Primitives(cfg Config) error {
	sweep := cfg.sweep()
	tab := results.New("E6",
		fmt.Sprintf("primitive microbenchmarks, threads=%v", sweep),
		"primitive", "kit", "threads", "per-op", "speedup-vs-classic")

	type prim struct {
		name string
		run  func(kit sync4.Kit, threads int) time.Duration
	}
	prims := []prim{
		{"barrier", benchBarrier},
		{"lock", func(kit sync4.Kit, t int) time.Duration { return benchLocker(kit.NewLock(), t) }},
		{"counter", benchCounter},
		{"accumulator", benchAccumulator},
		{"queue", benchQueue},
	}
	for _, p := range prims {
		for _, t := range sweep {
			tc := p.run(classic.New(), t)
			tl := p.run(lockfree.New(), t)
			tab.AddRow(p.name, "classic", t, tc.Round(time.Nanosecond), "1.00")
			tab.AddRow(p.name, "lockfree", t, tl.Round(time.Nanosecond),
				fmt.Sprintf("%.2f", float64(tc)/float64(tl)))
		}
	}
	if err := tab.Emit(cfg.Out, cfg.CSVDir, ""); err != nil {
		return err
	}
	return e6Extensions(cfg)
}

// e6Extensions compares the construct variants beyond the kit interface —
// the "what comes after one atomic word" designs — against their kit
// counterparts.
func e6Extensions(cfg Config) error {
	sweep := cfg.sweep()
	tab := results.New("E6x",
		fmt.Sprintf("extension constructs (lockfree family), threads=%v", sweep),
		"construct", "variant", "threads", "per-op", "speedup-vs-first")

	type variant struct {
		name string
		run  func(threads int) time.Duration
	}
	groups := []struct {
		construct string
		variants  []variant
	}{
		{"lock", []variant{
			{"tas-spin", func(t int) time.Duration { return benchLocker(lockfree.New().NewLock(), t) }},
			{"ticket", func(t int) time.Duration { return benchLocker(new(lockfree.TicketLock), t) }},
		}},
		{"barrier", []variant{
			{"central", func(t int) time.Duration { return benchBarrier(lockfree.New(), t) }},
			{"tree", benchTreeBarrier},
		}},
		{"counter", []variant{
			{"fetch-add", func(t int) time.Duration { return benchCounter(lockfree.New(), t) }},
			{"striped", benchStripedCounter},
		}},
	}
	for _, g := range groups {
		for _, t := range sweep {
			var base time.Duration
			for i, v := range g.variants {
				d := v.run(t)
				if i == 0 {
					base = d
				}
				tab.AddRow(g.construct, v.name, t, d.Round(time.Nanosecond),
					fmt.Sprintf("%.2f", float64(base)/float64(d)))
			}
		}
	}
	return tab.Emit(cfg.Out, cfg.CSVDir, "")
}

// benchBarrier times one barrier episode across threads.
func benchBarrier(kit sync4.Kit, threads int) time.Duration {
	const episodes = 2000
	b := kit.NewBarrier(threads)
	start := time.Now()
	core.Parallel(threads, func(int) {
		for i := 0; i < episodes; i++ {
			b.Wait()
		}
	})
	return time.Since(start) / episodes
}

// benchCounter times one contended counter increment.
func benchCounter(kit sync4.Kit, threads int) time.Duration {
	const perThread = 200000
	c := kit.NewCounter()
	start := time.Now()
	core.Parallel(threads, func(int) {
		for i := 0; i < perThread; i++ {
			c.Inc()
		}
	})
	return time.Since(start) / time.Duration(perThread)
}

// benchAccumulator times one contended floating-point accumulation.
func benchAccumulator(kit sync4.Kit, threads int) time.Duration {
	const perThread = 100000
	a := kit.NewAccumulator()
	start := time.Now()
	core.Parallel(threads, func(tid int) {
		v := float64(tid + 1)
		for i := 0; i < perThread; i++ {
			a.Add(v)
		}
	})
	return time.Since(start) / time.Duration(perThread)
}

// benchQueue times one put+get pair through a shared queue.
func benchQueue(kit sync4.Kit, threads int) time.Duration {
	const perThread = 50000
	q := kit.NewQueue(1024)
	start := time.Now()
	core.Parallel(threads, func(tid int) {
		for i := 0; i < perThread; i++ {
			q.Put(int64(i))
			q.TryGet()
		}
	})
	return time.Since(start) / time.Duration(perThread)
}

// benchLocker times one acquire/release of any locker under contention.
func benchLocker(l sync4.Locker, threads int) time.Duration {
	const perThread = 50000
	start := time.Now()
	core.Parallel(threads, func(int) {
		for i := 0; i < perThread; i++ {
			l.Lock()
			l.Unlock()
		}
	})
	return time.Since(start) / time.Duration(perThread)
}

// benchTreeBarrier times one combining-tree barrier episode.
func benchTreeBarrier(threads int) time.Duration {
	const episodes = 2000
	b := lockfree.NewTreeBarrier(threads, 4)
	start := time.Now()
	core.Parallel(threads, func(tid int) {
		for i := 0; i < episodes; i++ {
			b.Wait(tid)
		}
	})
	return time.Since(start) / episodes
}

// benchStripedCounter times one striped increment.
func benchStripedCounter(threads int) time.Duration {
	const perThread = 200000
	c := lockfree.NewStripedCounter(threads)
	start := time.Now()
	core.Parallel(threads, func(tid int) {
		for i := 0; i < perThread; i++ {
			c.AddAt(tid, 1)
		}
	})
	return time.Since(start) / time.Duration(perThread)
}

// Experiments is the experiment index (DESIGN.md): every experiment's ID
// and the function that reproduces it, in the order All runs them.
var Experiments = []struct {
	ID  string
	Run func(Config) error
}{
	{"E1", e1NormalizedTime},
	{"E2", e2Scaling},
	{"E3", e3Inventory},
	{"E4", e4SyncCensus},
	{"E5", e5MachineModel},
	{"E6", e6Primitives},
	{"E7", e7Ablation},
	{"E8", e8SyncShare},
	{"E9", e9GCCensus},
}

// All runs every experiment in order.
func All(cfg Config) error {
	for _, e := range Experiments {
		if err := e.Run(cfg); err != nil {
			return err
		}
	}
	return nil
}

// Benchmark targets, one per experiment in DESIGN.md's index (E3 is a
// static table and has no timing component; E5's table comes from
// `splash4-report -exp E5`, and BenchmarkDESReplay times its engine).
// Inputs default to ScaleTest so `go test -bench=.` finishes quickly; the
// cmd/splash4-report tool runs the same experiments at paper-like sizes.
package splash4_test

import (
	"fmt"
	"testing"

	splash4 "repro"
)

// benchThreads is the fixed thread count of the contention benchmarks: high
// enough to contend, independent of the host's core count so results are
// comparable across machines.
const benchThreads = 8

func kits() []splash4.Kit {
	return []splash4.Kit{splash4.Classic(), splash4.Lockfree()}
}

// runOnce prepares and runs one instance, failing the benchmark on error.
// Preparation happens with the timer stopped.
func runOnce(b *testing.B, bench splash4.Benchmark, cfg splash4.Config) {
	b.Helper()
	b.StopTimer()
	inst, err := bench.Prepare(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	if err := inst.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1NormalizedTime regenerates experiment E1: every suite workload
// under both kits at a fixed thread count. Comparing a workload's classic
// and lockfree series gives the paper's normalized execution time.
func BenchmarkE1NormalizedTime(b *testing.B) {
	for _, bench := range splash4.Suite() {
		for _, kit := range kits() {
			b.Run(fmt.Sprintf("%s/%s", bench.Name(), kit.Name()), func(b *testing.B) {
				cfg := splash4.Config{Threads: benchThreads, Kit: kit, Scale: splash4.ScaleTest, Seed: 1}
				for i := 0; i < b.N; i++ {
					runOnce(b, bench, cfg)
				}
			})
		}
	}
}

// BenchmarkE2Scaling regenerates experiment E2: a thread sweep per workload
// and kit. A compact sweep keeps the default run short; the report tool
// sweeps to 64.
func BenchmarkE2Scaling(b *testing.B) {
	sweep := []int{1, 4, 16}
	for _, bench := range splash4.Suite() {
		for _, kit := range kits() {
			for _, t := range sweep {
				b.Run(fmt.Sprintf("%s/%s/t%d", bench.Name(), kit.Name(), t), func(b *testing.B) {
					cfg := splash4.Config{Threads: t, Kit: kit, Scale: splash4.ScaleTest, Seed: 1}
					for i := 0; i < b.N; i++ {
						runOnce(b, bench, cfg)
					}
				})
			}
		}
	}
}

// BenchmarkE4SyncCensus regenerates experiment E4: instrumented runs whose
// synchronization-event counts are attached as benchmark metrics.
func BenchmarkE4SyncCensus(b *testing.B) {
	for _, bench := range splash4.Suite() {
		for _, kit := range kits() {
			b.Run(fmt.Sprintf("%s/%s", bench.Name(), kit.Name()), func(b *testing.B) {
				var last splash4.SyncSnapshot
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var counters splash4.SyncCounters
					cfg := splash4.Config{
						Threads: benchThreads,
						Kit:     splash4.Instrument(kit, &counters, false),
						Scale:   splash4.ScaleTest,
						Seed:    1,
					}
					inst, err := bench.Prepare(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := inst.Run(); err != nil {
						b.Fatal(err)
					}
					last = counters.Snapshot()
				}
				b.ReportMetric(float64(last.LockAcquires), "locks/run")
				b.ReportMetric(float64(last.BarrierWaits), "barriers/run")
				b.ReportMetric(float64(last.RMWOps()), "rmw/run")
			})
		}
	}
}

// BenchmarkE6Primitives regenerates experiment E6: the raw synchronization
// primitives under contention, per kit. These are the microbenchmarks
// behind the companion paper's up-to-9x construct-level speedups.
func BenchmarkE6Primitives(b *testing.B) {
	for _, kit := range kits() {
		kit := kit
		b.Run("barrier/"+kit.Name(), func(b *testing.B) {
			bar := kit.NewBarrier(benchThreads)
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(int) {
				for i := 0; i < b.N; i++ {
					bar.Wait()
				}
			})
		})
		b.Run("lock/"+kit.Name(), func(b *testing.B) {
			l := kit.NewLock()
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(int) {
				for i := 0; i < b.N; i++ {
					l.Lock()
					l.Unlock()
				}
			})
		})
		b.Run("counter/"+kit.Name(), func(b *testing.B) {
			c := kit.NewCounter()
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(int) {
				for i := 0; i < b.N; i++ {
					c.Inc()
				}
			})
		})
		b.Run("accumulator/"+kit.Name(), func(b *testing.B) {
			a := kit.NewAccumulator()
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(tid int) {
				v := float64(tid + 1)
				for i := 0; i < b.N; i++ {
					a.Add(v)
				}
			})
		})
		b.Run("queue/"+kit.Name(), func(b *testing.B) {
			q := kit.NewQueue(1024)
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(int) {
				for i := 0; i < b.N; i++ {
					q.Put(int64(i))
					q.TryGet()
				}
			})
		})
		b.Run("stack/"+kit.Name(), func(b *testing.B) {
			s := kit.NewStack()
			b.ResetTimer()
			splash4.Parallel(benchThreads, func(int) {
				for i := 0; i < b.N; i++ {
					s.Push(int64(i))
					s.TryPop()
				}
			})
		})
	}
}

// BenchmarkDESReplay measures the discrete-event simulator itself: one
// simulation of a 16-thread, 200-phase trace with contended RMWs. This is
// infrastructure (the E5 engine), not a suite workload.
func BenchmarkDESReplay(b *testing.B) {
	tr := splash4.SimTrace{}
	for t := 0; t < 16; t++ {
		var evs []splash4.SimEvent
		for p := 0; p < 200; p++ {
			evs = append(evs,
				splash4.SimEvent{Kind: splash4.SimCompute, Dur: 10000},
				splash4.SimEvent{Kind: splash4.SimRMW, Obj: t % 4},
				splash4.SimEvent{Kind: splash4.SimBarrier, Obj: 0})
		}
		tr = append(tr, evs)
	}
	m := splash4.IceLakeLike()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splash4.Simulate(tr, m, "classic"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Ablation regenerates experiment E7: the construct ladder
// (classic -> atomics-only -> barrier-only -> lockfree) on the workloads
// most sensitive to each construct family.
func BenchmarkE7Ablation(b *testing.B) {
	lf := splash4.Lockfree()
	cl := splash4.Classic()
	ladder := []splash4.Kit{
		cl,
		splash4.Compose("atomics-only", cl, splash4.Overrides{Counters: lf, Accumulators: lf, MinMaxes: lf}),
		splash4.Compose("barrier-only", cl, splash4.Overrides{Barriers: lf}),
		lf,
	}
	for _, name := range []string{"fft", "radix", "ocean", "water-nsquared"} {
		bench, err := splash4.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, kit := range ladder {
			b.Run(fmt.Sprintf("%s/%s", name, kit.Name()), func(b *testing.B) {
				cfg := splash4.Config{Threads: benchThreads, Kit: kit, Scale: splash4.ScaleTest, Seed: 1}
				for i := 0; i < b.N; i++ {
					runOnce(b, bench, cfg)
				}
			})
		}
	}
}

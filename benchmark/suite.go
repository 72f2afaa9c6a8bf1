package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
)

// suite_default: the paper's experiment on the library path. Every program
// runs under both kits through harness.Pair with 2 threads; one verified pass
// proves the outputs, then timing passes repeat until the window closes.

const suiteThreads = 2

// suiteSetupReps is how many times the set-up (one Prepare of every program
// under both kits, the suite's untimed initialisation phase) is repeated.
const suiteSetupReps = 3

func runSuite(r *run) error {
	programs, scale := all.Suite(), core.ScaleDefault
	if r.tiny {
		programs, scale = programs[1:3], core.ScaleTest
	}
	cfg := core.Config{Threads: suiteThreads, Scale: scale, Seed: r.seed}
	var kits [2]sync4.Kit

	prepare := newUnitSet() // Prepare times in ms, for workloads.prepare_s
	for rep := 0; rep < r.reps(suiteSetupReps); rep++ {
		before := r.host.sample()
		start := time.Now()
		kits = [2]sync4.Kit{classic.New(), lockfree.New()}
		for _, b := range programs {
			for _, k := range kits {
				c := cfg
				c.Kit = k
				t0 := time.Now()
				_, err := b.Prepare(c)
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("prepare %s/%s: %w", b.Name(), k.Name(), err)
				}
				r.tr.add(b.Name()+"/"+k.Name(), "workloads.prepare", 0, t0, t1)
				prepare.add(b.Name()+"/"+k.Name(), k.Name(), ms(t1.Sub(t0)))
			}
		}
		took := time.Since(start).Seconds()
		r.setups = append(r.setups, took*adjust(before, r.host.sample()))
	}

	// pair makes one harness.Pair call, records its span with the timed
	// regions as children, and returns both results.
	pair := func(b core.Benchmark, opt harness.Options, name string) (rc, rl harness.Result, err error) {
		start := time.Now()
		rc, rl, err = harness.Pair(b, cfg, kits[0], kits[1], opt)
		end := time.Now()
		id := r.tr.add(b.Name(), name, 0, start, end)
		for _, res := range []harness.Result{rc, rl} {
			for _, reg := range res.Regions {
				r.tr.add(b.Name(), "workloads.region", id, reg.Start, reg.End)
			}
		}
		return rc, rl, err
	}

	began := time.Now()
	// The verified pass. Its timed regions are the programs' first, cold
	// runs, so they are kept out of the timing samples.
	for _, b := range programs {
		_, rl, err := pair(b, harness.Options{Reps: 1, Verify: true}, "harness.pair_verify")
		// Pair stops at the first failure: a kit whose result is missing
		// was not verified, and counts as failed too.
		r.check(err == nil || rl.Bench != "", "%s/classic: %v", b.Name(), err)
		r.check(err == nil, "%s/lockfree: %v", b.Name(), err)
	}

	// Timing passes. Every program's pair of runs is bracketed by two host
	// probes, and the unit times and the pass's wall time are adjusted to an
	// idle host by them (host.go); the per-layer numbers stay as measured.
	raw := newUnitSet()
	var passWalls, adjustedWalls, regionSums, adjusts []float64
	passes := 0
	for last := time.Duration(0); passes == 0 || time.Since(began)+last <= r.window; passes++ {
		passStart := time.Now()
		var regions, adjustedWall time.Duration
		before := r.host.sample()
		for _, b := range programs {
			start := time.Now()
			rc, rl, err := pair(b, harness.Options{Reps: 1, QuiesceGC: true}, "harness.pair")
			if err != nil {
				return fmt.Errorf("timing %s: %w", b.Name(), err)
			}
			wall := time.Since(start)
			after := r.host.sample()
			f := adjust(before, after)
			before = after
			adjusts = append(adjusts, f)
			adjustedWall += time.Duration(float64(wall) * f)
			for _, res := range []harness.Result{rc, rl} {
				for _, d := range res.Times.Durations() {
					raw.add(b.Name()+"/"+res.Kit, res.Kit, ms(d))
					r.units.add(b.Name()+"/"+res.Kit, res.Kit, ms(d)*f)
					regions += d
				}
			}
		}
		last = time.Since(passStart)
		passWalls = append(passWalls, last.Seconds())
		adjustedWalls = append(adjustedWalls, adjustedWall.Seconds())
		regionSums = append(regionSums, regions.Seconds())
	}
	// Throughput is that of the median pass, so that one pass caught in a
	// burst of outside load does not set it.
	r.work = float64(2 * len(programs))
	r.busy = time.Duration(median(adjustedWalls) * float64(time.Second))
	r.note("scale=%s threads=%d programs=%d verified_passes=1 timing_passes=%d reps_per_pass=1", scale, suiteThreads, len(programs), passes)
	rawSum := raw.summary()
	r.note("as measured, before the host adjustment (median factor %.4f): classic_ms=%.4f lockfree_ms=%.4f p90_ms=%.4f",
		median(adjusts), rawSum.classicMS, rawSum.lockfreeMS, rawSum.p90MS)

	if r.tr == nil {
		return nil
	}
	// Per-layer numbers, traced pass only.
	r.setLayer("host.adjust", median(adjusts))
	medians := raw.kindMedians()
	var norm []float64
	for _, b := range programs {
		c, l := medians[b.Name()+"/"+kitClassic], medians[b.Name()+"/"+kitLockfree]
		r.setLayer("workloads."+b.Name()+"."+kitClassic+".region_ms", c)
		r.setLayer("workloads."+b.Name()+"."+kitLockfree+".region_ms", l)
		norm = append(norm, l/c)
	}
	r.setLayer("suite.norm_time_geomean", geomean(norm))
	r.setLayer("suite.wall_s", median(passWalls))
	r.setLayer("workloads.region_s", median(regionSums))
	var prepareS float64
	for _, m := range prepare.kindMedians() {
		prepareS += m / 1e3
	}
	r.setLayer("workloads.prepare_s", prepareS)
	// A verified pass is a timing pass plus Verify, minus the collection
	// the timing pass forces before each region; what the harness adds to a
	// timing pass is what Prepare and the regions do not explain.
	self := r.tr.selfByName()
	var verifySelf float64
	for _, ns := range self["harness.pair_verify"] {
		verifySelf += ns / 1e9
	}
	r.setLayer("workloads.verify_s", max(verifySelf-prepareS, 0))
	overhead := median(passWalls) - median(regionSums) - prepareS
	r.setLayer("harness.overhead_share", max(overhead, 0)/median(passWalls))

	// The census: one instrumented, timed repetition per program and kit.
	for _, k := range kits {
		var ops, blocked, region int64
		for _, b := range programs {
			c := cfg
			c.Kit = k
			start := time.Now()
			res, err := harness.Run(b, c, harness.Options{Reps: 1, Instrument: true, TimedSync: true})
			r.tr.add(b.Name(), "harness.run_census", 0, start, time.Now())
			if err != nil {
				return fmt.Errorf("census %s/%s: %w", b.Name(), k.Name(), err)
			}
			ops += res.Sync.Total()
			blocked += res.Sync.BlockedNanos()
			region += res.Times.Mean().Nanoseconds() * suiteThreads
		}
		r.setLayer("sync4."+k.Name()+".census_ops", float64(ops))
		r.setLayer("sync4."+k.Name()+".blocked_share", float64(blocked)/float64(region))
	}
	return nil
}

// Machinemodel: collect the synchronization-event census of a real run and
// replay it on the modeled machines (the reproduction's stand-in for the
// paper's gem5 Ice Lake simulations — see DESIGN.md, S6). The modeled
// classic-vs-lockfree gap shows the paper's shape even when the host has
// too few cores to exhibit it on wall-clock time.
//
//	go run ./examples/machinemodel
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	splash4 "repro"
)

func main() {
	bench, err := splash4.ByName("ocean")
	if err != nil {
		log.Fatal(err)
	}
	const threads = 16
	cfg := splash4.Config{Threads: threads, Kit: splash4.Classic(), Scale: splash4.ScaleSmall, Seed: 1}
	opt := splash4.Options{Reps: 1, Warmup: 1, QuiesceGC: true, Instrument: true, TimedSync: true}

	res, err := splash4.Run(bench, cfg, opt)
	if err != nil {
		log.Fatal(err)
	}
	s := res.Sync
	fmt.Printf("%s, %d threads, classic kit: locks=%d barriers=%d rmw-ops=%d over %d cells, blocked=%v\n",
		bench.Name(), threads, s.LockAcquires, s.BarrierWaits, s.RMWOps(), s.RMWCells(),
		time.Duration(s.BlockedNanos()).Round(time.Microsecond))

	// The trace's aggregate compute is the wall time times the host cores
	// the run could use, less the time threads spent blocked.
	compute := res.Times.Mean() * time.Duration(min(runtime.GOMAXPROCS(0), threads))
	if blocked := time.Duration(s.BlockedNanos()); blocked < compute {
		compute -= blocked
	}
	tr := splash4.TraceFromSnapshot(s, threads, compute, int(s.RMWCells()))

	// One trace, replayed on both machines under both kits' construct costs.
	for _, m := range []splash4.Machine{splash4.IceLakeLike(), splash4.EpycLike()} {
		fmt.Printf("\nmodeled on %s:\n", m.Name)
		var makespan [2]time.Duration
		for i, kit := range []string{"classic", "lockfree"} {
			sim, err := splash4.Simulate(tr, m, kit)
			if err != nil {
				log.Fatal(err)
			}
			makespan[i] = sim.Makespan
			fmt.Printf("  %-9s makespan %v (compute %v + sync %v, summed over threads)\n", kit+":",
				sim.Makespan.Round(time.Microsecond), sim.ComputeTime.Round(time.Microsecond),
				sim.SyncTime.Round(time.Microsecond))
		}
		norm := float64(makespan[1]) / float64(makespan[0])
		fmt.Printf("  normalized execution time: %.3f (%.1f%% reduction)\n", norm, (1-norm)*100)
	}
}

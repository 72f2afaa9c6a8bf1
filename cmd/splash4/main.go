// Command splash4 runs suite benchmarks from the command line.
//
// Usage:
//
//	splash4 -list
//	splash4 -bench fft -threads 8 -kit lockfree -scale small -reps 3
//	splash4 -bench all -threads 16 -compare
//
// With -compare the benchmark runs under both kits and the classic-vs-
// lockfree normalized time is reported — the paper's headline metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	splash4 "repro"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list the suite benchmarks and exit")
		bench   = flag.String("bench", "all", "benchmark name, or 'all' for the whole suite")
		threads = flag.Int("threads", 4, "worker threads")
		kitName = flag.String("kit", "lockfree", "synchronization kit: classic or lockfree")
		scale   = flag.String("scale", "small", "input scale: test, small, default, large")
		reps    = flag.Int("reps", 3, "measured repetitions")
		warmup  = flag.Int("warmup", 1, "warmup repetitions")
		seed    = flag.Int64("seed", 1, "input generation seed")
		verify  = flag.Bool("verify", false, "verify results after every repetition")
		compare = flag.Bool("compare", false, "run both kits and report normalized time")
		census  = flag.Bool("census", false, "collect and print the synchronization event census")
	)
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		for _, b := range splash4.Suite() {
			fmt.Fprintf(tw, "%s\t%s\n", b.Name(), b.Description())
		}
		tw.Flush()
		return
	}

	sc, err := splash4.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opt := splash4.Options{
		Reps:       *reps,
		Warmup:     *warmup,
		Verify:     *verify,
		QuiesceGC:  true,
		Instrument: *census,
		TimedSync:  *census,
	}

	var benches []splash4.Benchmark
	if *bench == "all" {
		benches = splash4.Suite()
	} else {
		b, err := splash4.ByName(*bench)
		if err != nil {
			fatal(err)
		}
		benches = []splash4.Benchmark{b}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	if *compare {
		fmt.Fprintln(tw, "benchmark\tthreads\tclassic\tlockfree\tnormalized\treduction")
	} else {
		fmt.Fprintln(tw, "benchmark\tkit\tthreads\tmean\tstddev\tmin")
	}

	for _, b := range benches {
		cfg := splash4.Config{Threads: *threads, Scale: sc, Seed: *seed}
		if *compare {
			rc, rl, err := splash4.Pair(b, cfg, opt)
			if err != nil {
				fatal(err)
			}
			norm := float64(rl.Times.Mean()) / float64(rc.Times.Mean())
			fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.3f\t%.1f%%\n", b.Name(), *threads,
				rc.Times.Mean().Round(time.Microsecond), rl.Times.Mean().Round(time.Microsecond),
				norm, (1-norm)*100)
			continue
		}
		cfg.Kit, err = parseKit(*kitName)
		if err != nil {
			fatal(err)
		}
		res, err := splash4.Run(b, cfg, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%v\t%v\n", b.Name(), res.Kit, res.Threads,
			res.Times.Mean().Round(time.Microsecond),
			res.Times.Stddev().Round(time.Microsecond),
			res.Times.Min().Round(time.Microsecond))
		if *census && res.HasSync {
			s := res.Sync
			fmt.Fprintf(tw, "  census\t\t\tlocks=%d\tbarriers=%d\trmw=%d\n",
				s.LockAcquires, s.BarrierWaits, s.RMWOps())
		}
	}
	tw.Flush()
}

func parseKit(s string) (splash4.Kit, error) {
	switch s {
	case "classic":
		return splash4.Classic(), nil
	case "lockfree":
		return splash4.Lockfree(), nil
	default:
		return nil, fmt.Errorf("unknown kit %q (classic, lockfree)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splash4:", err)
	os.Exit(1)
}

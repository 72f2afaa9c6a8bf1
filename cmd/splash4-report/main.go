// Command splash4-report regenerates the paper's evaluation tables and
// figures (experiments E1-E7; see DESIGN.md for the index).
//
// Usage:
//
//	splash4-report                        # all experiments, small inputs
//	splash4-report -exp E1 -threads 16
//	splash4-report -exp E2 -sweep 1,2,4,8,16,32,64 -scale default
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	splash4 "repro"
	"repro/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id: E1..E9 (including E5b), or 'all'")
		csvDir  = flag.String("csv", "", "directory to also save each table as CSV (empty = text only)")
		threads = flag.Int("threads", 0, "thread count for fixed-thread experiments (0 = min(GOMAXPROCS, 64))")
		sweep   = flag.String("sweep", "", "comma-separated thread sweep for E2/E6 (default 1,2,4,...)")
		scale   = flag.String("scale", "small", "input scale: test, small, default, large")
		reps    = flag.Int("reps", 3, "measured repetitions per configuration")
		seed    = flag.Int64("seed", 1, "input generation seed")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset (default: whole suite)")
	)
	flag.Parse()

	sc, err := splash4.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg := report.Config{
		Threads: *threads,
		Scale:   sc,
		Reps:    *reps,
		Seed:    *seed,
		Out:     os.Stdout,
		CSVDir:  *csvDir,
	}
	if *sweep != "" {
		for _, part := range strings.Split(*sweep, ",") {
			t, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || t < 1 {
				fatal(fmt.Errorf("bad sweep entry %q", part))
			}
			cfg.Sweep = append(cfg.Sweep, t)
		}
	}
	if *benches != "" {
		for _, part := range strings.Split(*benches, ",") {
			cfg.Benchmarks = append(cfg.Benchmarks, strings.TrimSpace(part))
		}
	}

	experiments := map[string]func(report.Config) error{
		"E1":  report.E1NormalizedTime,
		"E2":  report.E2Scaling,
		"E3":  report.E3Inventory,
		"E4":  report.E4SyncCensus,
		"E5":  report.E5PerfModel,
		"E5B": report.E5bDESReplay,
		"E6":  report.E6Primitives,
		"E7":  report.E7Ablation,
		"E8":  report.E8SyncShare,
		"E9":  report.E9GCCensus,
	}
	if *exp == "all" {
		if err := report.All(cfg); err != nil {
			fatal(err)
		}
		return
	}
	fn, ok := experiments[strings.ToUpper(*exp)]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (E1..E9, E5b, or all)", *exp))
	}
	if err := fn(cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splash4-report:", err)
	os.Exit(1)
}

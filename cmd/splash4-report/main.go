// Command splash4-report regenerates the paper's evaluation tables and
// figures (report.Experiments; see DESIGN.md for the index).
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
		exp     = flag.String("exp", "all", "experiment id: "+experimentIDs())
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

	run, err := lookup(*exp)
	if err != nil {
		fatal(err)
	}
	if err := run(cfg); err != nil {
		fatal(err)
	}
}

// lookup resolves an -exp value, case-insensitively, against
// report.Experiments; "all" runs every experiment.
func lookup(id string) (func(report.Config) error, error) {
	if strings.EqualFold(id, "all") {
		return report.All, nil
	}
	for _, e := range report.Experiments {
		if strings.EqualFold(id, e.ID) {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, experimentIDs())
}

// experimentIDs lists the valid -exp values.
func experimentIDs() string {
	var ids []string
	for _, e := range report.Experiments {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ") + " or all"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "splash4-report:", err)
	os.Exit(1)
}

// Command splash4-trace captures a synchronization event trace of one
// workload run and turns it into the suite's observability artifacts:
//
//	splash4-trace -workload fft -kit lockfree -threads 4 -scale test
//
// writes a Chrome trace-event JSON file (load it in Perfetto or
// chrome://tracing), prints the barrier-delimited phase timeline and the
// blocked-time histograms, cross-checks the trace census against the
// instrumentation counters, and replays the capture through the dessim
// machine model. The process exits non-zero if the export fails validation
// or the trace census disagrees with sync4.Instrument — the tracer's two
// correctness gates; main_test.go runs both on a real capture.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dessim"
	"repro/internal/harness"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
	"repro/internal/workloads/all"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h already printed the usage
		fmt.Fprintln(os.Stderr, "splash4-trace:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, trace one run, apply both gates,
// write the trace file and print the tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("splash4-trace", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "fft", "benchmark to trace")
		kitName  = fs.String("kit", "lockfree", "synchronization kit: classic or lockfree")
		threads  = fs.Int("threads", 4, "worker threads")
		scale    = fs.String("scale", "test", "input scale: test, small, default, large")
		seed     = fs.Int64("seed", 1, "input generation seed")
		capacity = fs.Int("capacity", 1<<18, "per-thread event buffer capacity")
		out      = fs.String("out", "", "trace JSON path (default <workload>-<kit>.trace.json)")
		replay   = fs.Bool("replay", true, "replay the capture through the dessim machine model")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bench, err := all.ByName(*workload)
	if err != nil {
		return err
	}
	var kit sync4.Kit
	switch *kitName {
	case "classic":
		kit = classic.New()
	case "lockfree":
		kit = lockfree.New()
	default:
		return fmt.Errorf("unknown kit %q (want classic or lockfree)", *kitName)
	}
	sc, err := core.ParseScale(*scale)
	if err != nil {
		return err
	}

	rec := trace.NewRecorder(2**threads, *capacity)
	res, err := harness.Run(bench, core.Config{
		Threads: *threads, Kit: kit, Scale: sc, Seed: *seed,
	}, harness.Options{Reps: 1, Verify: true, Instrument: true, Trace: rec, SampleRuntime: true})
	if err != nil {
		return err
	}
	c := res.Trace
	label := fmt.Sprintf("%s/%s t=%d %s", res.Bench, res.Kit, res.Threads, res.Scale)

	fmt.Fprintf(stdout, "%s: wall=%v events=%d lanes=%d\n",
		label, res.Times.Mean().Round(time.Microsecond), c.Events(), len(c.Lanes))
	if d := c.TotalDropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "warning: dropped %d events (lane capacity %d); raise -capacity\n",
			d, *capacity)
	}
	if res.Runtime != nil {
		fmt.Fprintf(stdout, "runtime during region: %s\n", res.Runtime)
	}

	// Gate 1: the trace census must agree with the instrumentation census.
	if err := sync4.CheckTraceCensus(c, res.Sync); err != nil {
		return fmt.Errorf("trace census disagrees with sync4.Instrument: %w", err)
	}

	// Gate 2: the Chrome export must pass its own validator.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, c, label); err != nil {
		return err
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		return fmt.Errorf("exported trace fails validation: %w", err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.trace.json", res.Bench, res.Kit)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes, load in Perfetto or chrome://tracing)\n", path, buf.Len())

	if err := trace.TimelineTable(c, label).Render(stdout); err != nil {
		return err
	}
	if err := trace.BlockedTable(c, label).Render(stdout); err != nil {
		return err
	}

	if *replay {
		if c.TotalDropped() > 0 {
			fmt.Fprintln(os.Stderr, "skipping replay: lossy captures are not structurally replayable")
			return nil
		}
		tr, err := dessim.FromCapture(c)
		if err != nil {
			return err
		}
		sim, err := dessim.Simulate(tr, dessim.IceLakeLike(), *kitName)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		fmt.Fprintf(stdout, "\ndessim replay (IceLake-like): makespan=%v sync=%v compute=%v\n",
			sim.Makespan.Round(time.Microsecond),
			sim.SyncTime.Round(time.Microsecond),
			sim.ComputeTime.Round(time.Microsecond))
	}
	return nil
}

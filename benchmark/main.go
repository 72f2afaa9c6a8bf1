// Command benchmark is the repository's benchmark: four named workloads, five
// end-to-end metrics that every workload reports, and per-layer metrics for
// every module a workload crosses. See README.md in this directory.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds <s>] [-trace 1] [-out runs.jsonl]
//	go run ./benchmark -compare a.jsonl b.jsonl
//	go run ./benchmark -spec > BENCHMARK.json
//
// It checks every output it measures and exits non-zero when a check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// record is one run of one workload: what the last line of standard output
// carries for the driver, plus provenance, for -out and -compare.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	// Failures holds the first failed checks' messages.
	Failures []string `json:"failures,omitempty"`
}

// provenance is recorded with every result, in the SPEC CPU run-rules sense:
// enough to tell whether two records may be compared.
type provenance struct {
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func readProvenance() provenance {
	p := provenance{GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// options are what one measurement is made with.
type options struct {
	seed    int64
	seconds int
	traced  bool
	// traceDir is where a traced run writes trace-<workload>.json.
	traceDir string
	// tiny is set only by the tests; see run.tiny.
	tiny bool
}

// pass runs one pass of a workload in its own temporary directory.
func pass(w workloadSpec, o options, tr *tracer) (*run, error) {
	tmp, err := os.MkdirTemp("", "splash4-benchmark-*")
	if err != nil {
		return nil, err
	}
	r := newRun(o.seed, time.Duration(o.seconds)*time.Second, tr, tmp)
	if r.tiny = o.tiny; o.tiny {
		r.window = 20 * time.Millisecond
	}
	err = w.run(r)
	return r, errors.Join(err, os.RemoveAll(tmp))
}

// measure runs a workload: one untraced pass for the end-to-end metrics and,
// when traced, a second pass that records spans and yields the per-layer
// metrics. The difference between the two passes is the tracing overhead.
func measure(w workloadSpec, o options) (record, error) {
	rec := record{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Provenance: readProvenance()}
	plain, err := pass(w, o, nil)
	if err != nil {
		return rec, fmt.Errorf("%s: %w", w.Name, err)
	}
	rec.EndToEnd = plain.endToEnd()
	rec.Attempted, rec.Failed, rec.Notes, rec.Failures = plain.attempted, plain.failed, plain.notes, plain.failures
	if o.traced {
		tr := newTracer()
		traced, err := pass(w, o, tr)
		if err != nil {
			return rec, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		rec.PerLayer = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			rec.PerLayer[m.Name] = traced.layer[m.Name]
		}
		for name := range traced.layer {
			if _, ok := rec.PerLayer[name]; !ok {
				return rec, fmt.Errorf("%s reports per-layer metric %q, which the catalogue does not have", w.Name, name)
			}
		}
		// Same work per unit in both passes, so the slowdown of the typical
		// unit is what recording the spans cost.
		a, b := plain.units.summary(), traced.units.summary()
		before, after := geomean([]float64{a.classicMS, a.lockfreeMS}), geomean([]float64{b.classicMS, b.lockfreeMS})
		if before > 0 {
			rec.PerLayer["trace_overhead_share"] = (after - before) / before
		}
		rec.PerLayer["units.tail_ms"], rec.PerLayer["units.tail_percent"], rec.PerLayer["units.samples"] = b.tailMS, b.tailPercent, float64(b.samples)
		rec.PerLayer["host.alu_us"], rec.PerLayer["host.mem_us"], rec.PerLayer["host.sync_us"] = traced.host.medians()
		rec.Attempted += traced.attempted
		rec.Failed += traced.failed
		rec.Failures = append(rec.Failures, traced.failures...)
		path, err := tr.write(o.traceDir, w.Name)
		if err != nil {
			return rec, err
		}
		rec.Notes = append(rec.Notes, "trace written to "+path)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// print writes every metric by name with its unit, then — as the last line —
// the one JSON object the driver reads: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (rec record) print() error {
	fmt.Printf("== %s seed=%d seconds=%d traced=%v go=%s nproc=%d gomaxprocs=%d commit=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Provenance.GoVersion,
		rec.Provenance.NProc, rec.Provenance.GOMAXPROCS, rec.Provenance.Commit)
	for _, n := range rec.Notes {
		fmt.Println("  #", n)
	}
	for _, f := range rec.Failures {
		fmt.Println("  FAILED:", f)
	}
	row := func(name string, v float64, unit string) { fmt.Printf("  %-44s %14.6g %s\n", name, v, unit) }
	for _, m := range endToEnd {
		row(m.Name, rec.EndToEnd[m.Name], m.Unit)
	}
	row("failed_share", float64(rec.Failed)/float64(max(rec.Attempted, 1)), fmt.Sprintf("share (%d of %d checks)", rec.Failed, rec.Attempted))
	specs, values := endToEnd, rec.EndToEnd
	if rec.Traced {
		specs, values = perLayer, rec.PerLayer
		idle := 0
		for _, m := range perLayer {
			if rec.PerLayer[m.Name] == 0 {
				idle++
				continue
			}
			row(m.Name, rec.PerLayer[m.Name], m.Unit)
		}
		fmt.Printf("  # %d more per-layer metrics read 0: those layers did no work on this workload\n", idle)
	}
	metrics := make(map[string]map[string]any, len(specs))
	for _, m := range specs {
		metrics[m.Name] = map[string]any{"value": values[m.Name], "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": max(rec.Attempted, 1), "failed": rec.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// appendRecord adds rec as one line of the -out file.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	workload := flag.String("workload", "all", "workload to run: "+workloadList()+", or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", runSeconds, "how long each pass measures")
	trace := flag.Int("trace", 0, "1 adds a traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
	out := flag.String("out", "", "append each run's record to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *spec:
		data, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		os.Stdout.Write(data)
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-out file]")
		return 2
	}
	run := workloads
	if *workload != "all" {
		w, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (want %s, or all)\n", *workload, workloadList())
			return 2
		}
		run = []workloadSpec{w}
	}
	code := 0
	for _, w := range run {
		rec, err := measure(w, options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceDir: filepath.Join("benchmark", "out")})
		if err != nil {
			// No result line: the run itself broke, which is not a
			// measurement of anything.
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if err := rec.print(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

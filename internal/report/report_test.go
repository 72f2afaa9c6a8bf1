package report_test

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// run runs the experiment whose ID is id.
func run(t *testing.T, id string, cfg report.Config) error {
	t.Helper()
	for _, e := range report.Experiments {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	t.Fatalf("no experiment %s", id)
	return nil
}

// tinyConfig keeps report runs fast: two benchmarks, test inputs, one rep.
func tinyConfig(buf *bytes.Buffer) report.Config {
	return report.Config{
		Threads:    4,
		Sweep:      []int{1, 2},
		Scale:      core.ScaleTest,
		Reps:       1,
		Seed:       1,
		Benchmarks: []string{"fft", "radix"},
		Out:        buf,
	}
}

func TestE1ProducesNormalizedTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E1", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1", "fft", "radix", "GEOMEAN", "normalized"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE2ProducesSweepColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E2", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"t=1", "t=2", "classic", "lockfree"} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 output missing %q:\n%s", want, out)
		}
	}
}

func TestE3ListsWholeSuite(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E3", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cholesky", "fft", "lu", "radix", "barnes", "fmm",
		"ocean", "radiosity", "raytrace", "volrend", "water-nsquared", "water-spatial"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 output missing %q", want)
		}
	}
}

func TestE4ReportsCensus(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E4", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"barriers", "rmw-ops", "blocked"} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 output missing %q:\n%s", want, out)
		}
	}
}

// runE5 runs E5 on tinyConfig and returns its text output and the rows
// of its e5.csv, header included.
func runE5(t *testing.T) (string, [][]string) {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.CSVDir = t.TempDir()
	if err := run(t, "E5", cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(cfg.CSVDir, "e5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), rows
}

func TestE5ModelsBothMachines(t *testing.T) {
	out, rows := runE5(t)
	// Machine-major: each machine's benchmarks, then its GEOMEAN.
	var want [][2]string
	for _, m := range []string{"icelake-sim", "epyc-rome"} {
		for _, b := range []string{"fft", "radix", "GEOMEAN"} {
			want = append(want, [2]string{m, b})
		}
	}
	if len(rows) != 1+len(want) || rows[0][0] != "machine" {
		t.Fatalf("e5.csv has %d rows, want a header and %d:\n%s", len(rows), len(want), out)
	}
	for i, w := range want {
		row := rows[1+i]
		if row[0] != w[0] || row[1] != w[1] {
			t.Fatalf("row %d is %s/%s, want %s/%s", i, row[0], row[1], w[0], w[1])
		}
	}
}

// TestE5RunsDESReplay checks that E5 is the discrete-event replay: the
// header names it, and every CSV row, GEOMEANs included, holds a
// normalized time in (0, 1], since both kits replay the same trace and no
// lock-free construct costs more than its classic counterpart.
func TestE5RunsDESReplay(t *testing.T) {
	out, rows := runE5(t)
	if !strings.Contains(out, "discrete-event") {
		t.Errorf("E5 output does not name the discrete-event replay:\n%s", out)
	}
	if len(rows) < 2 {
		t.Fatalf("e5.csv has %d rows, want a header and data:\n%s", len(rows), out)
	}
	for _, row := range rows[1:] {
		norm, err := strconv.ParseFloat(row[4], 64)
		if err != nil || norm <= 0 || norm > 1 {
			t.Errorf("%s/%s: normalized %q, want in (0, 1]", row[0], row[1], row[4])
		}
	}
}

func TestE6CoversPrimitives(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	if err := run(t, "E6", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"barrier", "lock", "counter", "accumulator", "queue", "speedup",
		"ticket", "tree", "striped"} {
		if !strings.Contains(out, want) {
			t.Errorf("E6 output missing %q:\n%s", want, out)
		}
	}
}

func TestE7RunsKitLadder(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E7", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classic", "atomics-only", "barrier-only", "lockfree"} {
		if !strings.Contains(out, want) {
			t.Errorf("E7 output missing %q:\n%s", want, out)
		}
	}
}

func TestE8ReportsSyncShare(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E8", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E8", "sync-share", "blk-p50", "blk-p95", "fft", "radix", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("E8 output missing %q:\n%s", want, out)
		}
	}
}

func TestE9ReportsGCCensus(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "E9", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E9", "alloc-bytes", "gc-cycles", "sched-p50", "fft", "radix"} {
		if !strings.Contains(out, want) {
			t.Errorf("E9 output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVExport(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.CSVDir = t.TempDir()
	if err := run(t, "E1", cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.CSVDir, "e1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "benchmark,classic,lockfree") {
		t.Fatalf("e1.csv header wrong: %q", string(data)[:50])
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Benchmarks = []string{"nope"}
	if err := run(t, "E1", cfg); err == nil {
		t.Fatal("E1 accepted an unknown benchmark")
	}
}

func TestAblationKitsLadder(t *testing.T) {
	kits := report.AblationKits()
	if len(kits) != 4 {
		t.Fatalf("ablation ladder has %d kits, want 4", len(kits))
	}
	names := map[string]bool{}
	for _, k := range kits {
		names[k.Name()] = true
	}
	for _, want := range []string{"classic", "atomics-only", "barrier-only", "lockfree"} {
		if !names[want] {
			t.Errorf("ladder missing kit %q", want)
		}
	}
}

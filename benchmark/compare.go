package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare a.jsonl b.jsonl: a is the parent (or the first set of runs), b the
// change (or the second set). One row per end-to-end metric and workload,
// each judged by the metric's own bound:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but a side's run-to-run spread (interquartile
//	            distance over median) is wider than the bound, and b's runs
//	            are not all better than all of a's
//	ok          otherwise

func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, sc.Err()
}

func column(recs []record, metric string) []float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.EndToEnd[metric]
	}
	return xs
}

// verdict judges one metric on one workload. a and b are the two sides' runs.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	// worseBy is how much worse b is than a, as a share of a.
	worseBy := (mb - ma) / ma
	better := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		worseBy = -worseBy
		better = func(x, y float64) bool { return x > y }
	}
	if worseBy > m.Bound {
		return "worse"
	}
	if max(spreadShare(a), spreadShare(b)) <= m.Bound {
		return "ok"
	}
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return "unresolved"
			}
		}
	}
	return "ok"
}

// compareFiles prints the table and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-12s %5s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			xa, xb := column(ra, m.Name), column(rb, m.Name)
			v := verdict(m, xa, xb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-12s %5s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, m.Unit, median(xa), median(xb), 100*(median(xb)-median(xa))/median(xa),
				100*spreadShare(xa), 100*spreadShare(xb), 100*m.Bound, v, len(xa), len(xb))
		}
	}
	return anyWorse, nil
}

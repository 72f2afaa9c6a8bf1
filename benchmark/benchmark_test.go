package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/workloads/all"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 98}, {1000, 99}, {2000, 99.5}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its argument")
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	// A 3 ms program counts as much as a 600 ms one: doubling either moves
	// the geomean by the same factor.
	base := geomean([]float64{3, 600})
	if a, b := geomean([]float64{6, 600})/base, geomean([]float64{3, 1200})/base; math.Abs(a-b) > 1e-12 {
		t.Errorf("doubling the small value moved the geomean by %v, the large one by %v", a, b)
	}
	if geomean(nil) != 0 || geomean([]float64{1, 0}) != 0 {
		t.Error("geomean of nothing, or of a zero, is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // root
		{ID: 2, Parent: 1, Start: 10, End: 40},  // child
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 130}, // sticks out of the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},  // grandchild: the root's self time ignores it
		{ID: 6, Parent: 3, Start: 30, End: 60},  // covers its parent exactly
	}
	want := map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 0, 4: 40, 5: 5, 6: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestUnitSummary(t *testing.T) {
	u := newUnitSet()
	for i := 0; i < 100; i++ {
		u.add("a/classic", kitClassic, 10)
		u.add("b/classic", kitClassic, 40)
		u.add("a/lockfree", kitLockfree, float64(i)) // 0..99, median 49.5
	}
	s := u.summary()
	if math.Abs(s.classicMS-20) > 1e-9 || math.Abs(s.lockfreeMS-49.5) > 1e-9 {
		t.Errorf("kit typical times = %v, %v, want 20 (geomean of 10 and 40) and 49.5", s.classicMS, s.lockfreeMS)
	}
	// 300 pooled samples: 100 tens, 100 forties and 0..99. They support p95.
	if s.samples != 300 || s.tailPercent != 95 || s.p90MS != percentile(pooledFixture(), 90) || s.tailMS != percentile(pooledFixture(), 95) {
		t.Errorf("summary = %+v", s)
	}
}

func pooledFixture() []float64 {
	var xs []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, 10, 40, float64(i))
	}
	return xs
}

func TestGeneratorsAreSeeded(t *testing.T) {
	draw := func(seed int64) (specs, reads, preload any) {
		sg, rg := newSpecGen(seed, 1, 2), newReadGen(seed, 3)
		var ss []any
		var rs []readOp
		for i := 0; i < 50; i++ {
			ss = append(ss, sg.next())
			rs = append(rs, rg.next())
		}
		return ss, rs, preloadRecords(seed, 1, "b", 50)
	}
	s1, r1, p1 := draw(7)
	s2, r2, p2 := draw(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(p1, p2) {
		t.Error("the same seed gave different inputs")
	}
	s3, r3, p3 := draw(8)
	if reflect.DeepEqual(s1, s3) || reflect.DeepEqual(r1, r3) || reflect.DeepEqual(p1, p3) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestSpecsNeverRepeat(t *testing.T) {
	seen := make(map[string]bool)
	for client := 0; client < 2; client++ {
		g := newSpecGen(3, client, 2)
		for i := 0; i < 5000; i++ {
			sp := g.next()
			if sp.Kit != kitNames[(i+client)%2] {
				t.Fatalf("spec %d has kit %s, want alternating kits", i, sp.Kit)
			}
			if seen[sp.Key()] {
				t.Fatalf("spec %s generated twice: singleflight would coalesce it", sp.Key())
			}
			seen[sp.Key()] = true
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogMeetsTheContract(t *testing.T) {
	if !reflect.DeepEqual(programNames, all.Names()) {
		t.Errorf("programNames = %v, the suite is %v", programNames, all.Names())
	}
	for i, c := range constructs {
		if c.name != constructNames[i] {
			t.Errorf("construct %d is %s, the catalogue says %s", i, c.name, constructNames[i])
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 100, 130, 60, 100, 150, 80, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"20% slower", lower, steady, scale(steady, 1.2), "worse"},
		{"20% faster", lower, steady, scale(steady, 0.8), "ok"},
		{"20% less throughput", higher, steady, scale(steady, 0.8), "worse"},
		{"20% more throughput", higher, steady, scale(steady, 1.2), "ok"},
		{"spread wider than the bound", lower, noisy, noisy, "unresolved"},
		{"noisy, but every run beats every parent run", lower, noisy, scale(noisy, 0.3), "ok"},
		{"noisy and worse", lower, noisy, scale(noisy, 1.5), "worse"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// smoke runs one workload at the tests' tiny size, untraced and traced.
func smoke(t *testing.T, name string) record {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rec, err := measure(w, options{seed: 5, seconds: 1, traced: true, traceDir: t.TempDir(), tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// Every workload, end to end, at a size that takes a fraction of a second, so
// that the benchmark cannot rot unnoticed: all checks pass, every end-to-end
// metric is measured, and the layers that should work on the workload do.
func TestWorkloadSmoke(t *testing.T) {
	for name, busy := range map[string][]string{
		"suite_default": {"suite.wall_s", "workloads.fft.classic.region_ms", "sync4.lockfree.census_ops"},
		"sync_ops":      {"sync4.lockfree.queue.ns_op", "sync4.classic.barrier.contended_ns_op", "sync4.trace.tax"},
		"daemon_submit": {"server.rep_us", "server.journal_us", "server.http_submit_us", "resultstore.append_sync_us", "server.jobs_accepted"},
		"cluster_mixed": {"server.rep_us", "cluster.catchup_ms", "cluster.converge_ms", "stats.bootstrap_ms", "resultstore.replay_ms_per_krec"},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rec := smoke(t, name)
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%d of %d checks failed", rec.Failed, rec.Attempted)
			}
			for _, m := range endToEnd {
				if !(rec.EndToEnd[m.Name] > 0) {
					t.Errorf("%s = %v, want a positive measurement", m.Name, rec.EndToEnd[m.Name])
				}
			}
			for _, m := range busy {
				if !(rec.PerLayer[m] > 0) {
					t.Errorf("%s = %v, want this layer to have worked", m, rec.PerLayer[m])
				}
			}
			if len(rec.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, the catalogue has %d", len(rec.PerLayer), len(perLayer))
			}
		})
	}
}

// A post-condition that cannot hold (counter == ops + 1) must fail the run,
// which is what makes the command exit non-zero.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	breakCheck = true
	defer func() { breakCheck = false }()
	w, _ := workloadByName("sync_ops")
	rec, err := measure(w, options{seed: 5, seconds: 1, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed == 0 {
		t.Errorf("a broken post-condition left the run correct (%d of %d checks failed)", rec.Failed, rec.Attempted)
	}
}

package loadgen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func testSimConfig() SimConfig {
	return SimConfig{Workers: 4, QueueCap: 8, ServiceNS: 200e6, MaxRetries: 3}
}

func mustSchedule(t *testing.T, cfg ScheduleConfig) []Request {
	t.Helper()
	reqs, err := Schedule(cfg)
	if err != nil {
		t.Fatalf("Schedule(%+v): %v", cfg, err)
	}
	return reqs
}

func TestScheduleDeterministicAndSorted(t *testing.T) {
	for _, shape := range Shapes {
		cfg := ScheduleConfig{Shape: shape, Requests: 200, SpanNS: 60e9, Seed: 42}
		a := mustSchedule(t, cfg)
		b := mustSchedule(t, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different schedules", shape)
		}
		c := mustSchedule(t, ScheduleConfig{Shape: shape, Requests: 200, SpanNS: 60e9, Seed: 43})
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical schedules", shape)
		}
		if len(a) != 200 {
			t.Fatalf("%s: %d requests, want 200", shape, len(a))
		}
		for i, req := range a {
			if req.AtNS < 0 || req.AtNS >= cfg.SpanNS {
				t.Fatalf("%s: arrival %d at %d outside [0, %d)", shape, i, req.AtNS, cfg.SpanNS)
			}
			if i > 0 && req.AtNS < a[i-1].AtNS {
				t.Fatalf("%s: arrivals not sorted at %d", shape, i)
			}
		}
	}
}

func TestScheduleSpecKeys(t *testing.T) {
	unique := func(reqs []Request) int {
		keys := map[string]bool{}
		for _, r := range reqs {
			keys[r.SpecKey] = true
		}
		return len(keys)
	}
	steady := mustSchedule(t, ScheduleConfig{Shape: ShapeSteady, Requests: 100, SpanNS: 10e9, Seed: 1})
	if got := unique(steady); got != 100 {
		t.Errorf("steady: %d unique specs, want 100 (no dedup pressure)", got)
	}
	hostile := mustSchedule(t, ScheduleConfig{Shape: ShapeDedupHostile, Requests: 100, SpanNS: 10e9, Seed: 1})
	if got := unique(hostile); got != 13 { // ceil(100/8) clumps
		t.Errorf("dedup_hostile: %d unique specs, want 13", got)
	}
}

func TestScheduleRejectsBadConfig(t *testing.T) {
	if _, err := Schedule(ScheduleConfig{Shape: "wat", Requests: 10, SpanNS: 1e9}); err == nil {
		t.Error("unknown shape accepted")
	}
	if _, err := Schedule(ScheduleConfig{Shape: ShapeSteady, Requests: 0, SpanNS: 1e9}); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := testSimConfig()
	sched := mustSchedule(t, ScheduleConfig{Shape: ShapeBurst, Requests: 300, SpanNS: 30e9, Seed: 7})
	a, err := Simulate(cfg, sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, sched, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Error("same seed, different per-request results")
	}
	if a.Accepted != b.Accepted || a.Rejected != b.Rejected || a.Errors != b.Errors {
		t.Errorf("tallies differ: %+v vs %+v", a, b)
	}
}

// TestSimulateAccounting checks conservation: every scheduled request ends
// in exactly one of done/deduped/error, and the latency histogram holds
// exactly the completed ones.
func TestSimulateAccounting(t *testing.T) {
	for _, shape := range Shapes {
		sched := mustSchedule(t, ScheduleConfig{Shape: shape, Requests: 250, SpanNS: 25e9, Seed: 11})
		res, err := Simulate(testSimConfig(), sched, 11)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Accepted + res.Deduped + res.Errors; got != 250 {
			t.Errorf("%s: %d outcomes for 250 requests", shape, got)
		}
		if got := int(res.Latency.N()); got != res.Accepted+res.Deduped {
			t.Errorf("%s: histogram holds %d, want %d completions", shape, got, res.Accepted+res.Deduped)
		}
		for i, rr := range res.Results {
			if rr.Outcome != OutcomeError && rr.LatencyNS <= 0 {
				t.Fatalf("%s: request %d completed with non-positive latency %d", shape, i, rr.LatencyNS)
			}
		}
	}
}

func TestSimulateDedupHostileCoalesces(t *testing.T) {
	sched := mustSchedule(t, ScheduleConfig{Shape: ShapeDedupHostile, Requests: 200, SpanNS: 20e9, Seed: 3})
	res, err := Simulate(testSimConfig(), sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped == 0 {
		t.Error("dedup-hostile traffic produced zero singleflight hits")
	}
	if res.Deduped <= res.Accepted {
		t.Errorf("dedup-hostile: deduped %d <= accepted %d; clumps are not coalescing", res.Deduped, res.Accepted)
	}
}

func TestSimulateBurstBackpressure(t *testing.T) {
	cfg := SimConfig{Workers: 2, QueueCap: 4, ServiceNS: 500e6, MaxRetries: 2}
	sched := mustSchedule(t, ScheduleConfig{Shape: ShapeBurst, Requests: 400, SpanNS: 20e9, Seed: 9})
	res, err := Simulate(cfg, sched, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Error("burst against a tiny ring produced zero 429s")
	}
	if res.MaxRetryAfterS < 1 || res.MaxRetryAfterS > 30 {
		t.Errorf("MaxRetryAfterS = %d, outside the [1,30] contract", res.MaxRetryAfterS)
	}
	if res.MaxQueueDepth > cfg.QueueCap {
		t.Errorf("queue depth %d exceeded capacity %d", res.MaxQueueDepth, cfg.QueueCap)
	}
	for i, rr := range res.Results {
		if rr.Rejections > cfg.MaxRetries+1 {
			t.Fatalf("request %d bounced %d times; retry budget is %d", i, rr.Rejections, cfg.MaxRetries)
		}
	}
}

func TestGateVerdicts(t *testing.T) {
	res, err := Simulate(testSimConfig(), mustSchedule(t,
		ScheduleConfig{Shape: ShapeSteady, Requests: 100, SpanNS: 30e9, Seed: 5}), 5)
	if err != nil {
		t.Fatal(err)
	}
	pass := Gate(ShapeSteady, 100, res.Latency, res.Accepted, res.Deduped, res.Rejected, res.Errors,
		SLO{P50MaxNS: 1 << 62, P99MaxNS: 1 << 62, ErrorBudget: 1})
	if !pass.Pass || len(pass.Violations) != 0 {
		t.Errorf("lenient SLO failed: %+v", pass.Violations)
	}
	fail := Gate(ShapeSteady, 100, res.Latency, res.Accepted, res.Deduped, res.Rejected, res.Errors,
		SLO{P50MaxNS: 1, P99MaxNS: 1, ErrorBudget: 1})
	if fail.Pass || len(fail.Violations) != 2 {
		t.Errorf("impossible SLO passed: %+v", fail.Violations)
	}
	if fail.P50NS <= 0 || fail.P99NS < fail.P50NS {
		t.Errorf("quantiles inconsistent: p50=%d p99=%d", fail.P50NS, fail.P99NS)
	}
}

// TestReportByteStable is the reproducibility acceptance check in unit
// form: the full sim pipeline, run twice with the same pinned seed, must
// produce identical report bytes.
func TestReportByteStable(t *testing.T) {
	build := func() []byte {
		simCfg := testSimConfig()
		rep := &Report{Mode: "sim", Seed: 42, Workers: simCfg.Workers,
			QueueCap: simCfg.QueueCap, Requests: 150, SpanNS: 15e9}
		slos := SimSLOs(simCfg)
		for _, shape := range Shapes {
			sched := mustSchedule(t, ScheduleConfig{Shape: shape, Requests: 150, SpanNS: 15e9, Seed: 42})
			res, err := Simulate(simCfg, sched, 42)
			if err != nil {
				t.Fatal(err)
			}
			rep.Shapes = append(rep.Shapes, Gate(shape, 150, res.Latency,
				res.Accepted, res.Deduped, res.Rejected, res.Errors, slos[shape]))
		}
		rep.Finalize()
		b, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("pinned-seed reports differ between runs")
	}
	if !strings.Contains(string(a), `"pass": true`) {
		t.Fatalf("pinned-seed sim violates its own SLOs:\n%s", a)
	}
	for _, shape := range Shapes {
		if !strings.Contains(string(a), `"shape": "`+shape+`"`) {
			t.Errorf("report lacks shape %s", shape)
		}
	}
}

func TestFinalizeFailsOnFailedShape(t *testing.T) {
	rep := &Report{Shapes: []ShapeReport{{Shape: ShapeSteady, Pass: true}, {Shape: ShapeBurst}}}
	rep.Finalize()
	if rep.Pass {
		t.Error("report passed despite a failed shape")
	}
}

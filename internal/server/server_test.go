package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
)

// gatedBench is a controllable benchmark: every Run blocks until the gate
// channel is closed (or yields a value), which lets tests hold jobs
// in-flight while they poke at the pipeline.
type gatedBench struct {
	name string
	gate chan struct{}
	err  error // what every repetition returns once the gate lets it through
}

func (g *gatedBench) Name() string        { return g.name }
func (g *gatedBench) Description() string { return "gated benchmark for server tests" }
func (g *gatedBench) Prepare(cfg core.Config) (core.Instance, error) {
	return &gatedInstance{g: g}, nil
}

type gatedInstance struct{ g *gatedBench }

func (i *gatedInstance) Run() error {
	if i.g.gate != nil {
		<-i.g.gate
	}
	return i.g.err
}
func (i *gatedInstance) Verify() error { return nil }

// newTestServer builds a server over a temp store. A nil resolver uses the
// real suite registry.
func newTestServer(t testing.TB, cfg Config) (*Server, *resultstore.Store) {
	t.Helper()
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		store.Close()
	})
	return s, store
}

func postRun(t *testing.T, ts *httptest.Server, spec string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response from %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// waitStatus polls GET /runs/{id} until the job reaches want (or the
// deadline trips) and returns the final view.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, ts.URL+"/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /runs/%s = %d (%v)", id, code, body)
		}
		switch body["status"] {
		case want:
			return body
		case "error":
			if want != "error" {
				t.Fatalf("run %s failed: %v", id, body["error"])
			}
			return body
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %q", id, want)
	return nil
}

// sseEvents reads the full SSE stream for one run and returns the event
// types in arrival order.
func sseEvents(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/runs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			types = append(types, strings.TrimPrefix(line, "event: "))
		}
	}
	return types
}

// TestEndToEndBothKits submits a real fft run under each kit, follows it to
// completion, and checks the result, the SSE replay, and the journal.
func TestEndToEndBothKits(t *testing.T) {
	s, store := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := map[string]string{}
	for _, kit := range []string{"classic", "lockfree"} {
		spec := fmt.Sprintf(`{"workload":"fft","kit":%q,"threads":2,"scale":"test","seed":1,"reps":2}`, kit)
		code, body := postRun(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("POST /runs (%s) = %d (%v)", kit, code, body)
		}
		ids[kit] = body["id"].(string)
	}
	for kit, id := range ids {
		body := waitStatus(t, ts, id, "done")
		result, ok := body["result"].(map[string]any)
		if !ok {
			t.Fatalf("%s: done without result: %v", kit, body)
		}
		if result["mean_ns"].(float64) <= 0 {
			t.Fatalf("%s: non-positive mean: %v", kit, result)
		}
		if result["trace_events"].(float64) <= 0 {
			t.Fatalf("%s: no trace events recorded; SSE progress had nothing to report", kit)
		}
		times := result["times_ns"].([]any)
		if len(times) != 2 {
			t.Fatalf("%s: %d recorded reps, want 2", kit, len(times))
		}

		// The SSE stream replays the full ordered progress history.
		events := sseEvents(t, ts, id)
		want := []string{"queued", "started", "rep", "rep", "done"}
		if fmt.Sprint(events) != fmt.Sprint(want) {
			t.Fatalf("%s: SSE events = %v, want %v", kit, events, want)
		}
	}

	// Both results must be journaled.
	for kit, id := range ids {
		rec, ok := store.ByID(id)
		if !ok {
			t.Fatalf("%s run %s missing from the store", kit, id)
		}
		if rec.Status != "ok" || rec.Kit != kit || len(rec.TimesNS) != 2 {
			t.Fatalf("stored record wrong: %+v", rec)
		}
	}

	// With data under both kits, /compare answers (no significance claim
	// at this scale — just a well-formed interval).
	code, body := getJSON(t, ts.URL+"/compare?workload=fft&threads=2&scale=test")
	if code != http.StatusOK {
		t.Fatalf("GET /compare = %d (%v)", code, body)
	}
	ci := body["ci"].(map[string]any)
	if !(ci["lo"].(float64) <= ci["hi"].(float64)) || body["speedup"].(float64) <= 0 {
		t.Fatalf("malformed compare response: %v", body)
	}
}

// TestSSEDuringRun subscribes while the job is still gated in-flight and
// asserts live events arrive in order.
func TestSSEDuringRun(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(name string) (core.Benchmark, error) {
			if name != "gated" {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			return bench, nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"reps":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d (%v)", code, body)
	}
	id := body["id"].(string)

	eventsCh := make(chan []string, 1)
	go func() { eventsCh <- sseEvents(t, ts, id) }()

	// Release the three gated repetitions.
	close(gate)
	events := <-eventsCh
	want := []string{"queued", "started", "rep", "rep", "rep", "done"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("live SSE events = %v, want %v", events, want)
	}
}

// TestBackpressure fills the ring behind a gated worker and asserts the
// next submission bounces with 429, then that the bounced spec succeeds
// once the pipeline drains.
//
//sync4:covers SYNC4-SERVE-002
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 1,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job A occupies the only worker.
	code, bodyA := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST A = %d", code)
	}
	waitStatus(t, ts, bodyA["id"].(string), "running")

	// Jobs B1 and B2 fill the ring (capacity 1 rounds up to the Vyukov
	// ring's two-slot floor).
	code, bodyB1 := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST B1 = %d", code)
	}
	code, bodyB2 := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST B2 = %d", code)
	}

	// Job C has nowhere to go: 429 with Retry-After.
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"gated","kit":"lockfree","threads":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST C = %d, want 429", resp.StatusCode)
	}
	if _, err := retryAfter(resp); err != nil {
		t.Fatal(err)
	}

	// Draining the gate frees the pipeline; the bounced spec now lands.
	close(gate)
	waitStatus(t, ts, bodyA["id"].(string), "done")
	waitStatus(t, ts, bodyB1["id"].(string), "done")
	waitStatus(t, ts, bodyB2["id"].(string), "done")
	code, bodyC := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("retried POST C = %d", code)
	}
	waitStatus(t, ts, bodyC["id"].(string), "done")
}

// TestSingleflightDedup submits the same spec twice while the first copy is
// still active and expects the second to ride along.
//
//sync4:covers SYNC4-SERVE-005
func TestSingleflightDedup(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, store := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"workload":"gated","kit":"classic","threads":1,"seed":7}`
	code, first := postRun(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d", code)
	}
	code, second := postRun(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("duplicate POST = %d, want 200", code)
	}
	if first["id"] != second["id"] || second["deduped"] != true {
		t.Fatalf("duplicate not deduped: first=%v second=%v", first["id"], second)
	}

	close(gate)
	waitStatus(t, ts, first["id"].(string), "done")
	if store.Len() != 1 {
		t.Fatalf("store holds %d records after dedup, want 1", store.Len())
	}

	// After completion the singleflight window is over: a resubmission
	// runs fresh.
	code, third := postRun(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("post-completion POST = %d, want 202", code)
	}
	if third["id"] == first["id"] {
		t.Fatal("post-completion resubmission reused the finished job")
	}
	waitStatus(t, ts, third["id"].(string), "done")
}

// TestDrainCompletesInFlight starts a drain with one job running and one
// queued, verifies admission flips to 503, and checks both jobs complete
// and are journaled before Drain returns.
//
//sync4:covers SYNC4-SERVE-004 SYNC4-SERVE-009
func TestDrainCompletesInFlight(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, store := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, bodyA := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":1}`)
	waitStatus(t, ts, bodyA["id"].(string), "running")
	_, bodyB := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":2}`)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Drain must flip admission to 503 promptly.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"gated","kit":"lockfree","threads":1,"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d, want 503", resp.StatusCode)
	}

	// Both accepted jobs finish once the gate opens, and Drain returns
	// cleanly with everything journaled.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, body := range []map[string]any{bodyA, bodyB} {
		id := body["id"].(string)
		j, ok := s.jobByID(id)
		if !ok || j.State() != StateDone {
			t.Fatalf("job %s not done after drain (state %v)", id, j.State())
		}
		if _, ok := store.ByID(id); !ok {
			t.Fatalf("job %s missing from the journal after drain", id)
		}
	}
}

// TestForcedDrainCancels expires the drain deadline while a job is stuck
// in-flight; cancellation must reach it at the repetition boundary, and the
// job must still end terminal and journaled.
//
//sync4:covers SYNC4-SERVE-010
func TestForcedDrainCancels(t *testing.T) {
	gate := make(chan struct{}, 1)
	bench := &gatedBench{name: "gated", gate: gate}
	s, store := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three reps, gate initially empty: rep 0 blocks in-flight. The drain
	// deadline expires while it blocks, canceling the job context; the
	// test then releases rep 0, and the harness must refuse to start rep 1
	// (cancellation lands at the repetition boundary).
	_, body := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"reps":3}`)
	id := body["id"].(string)
	waitStatus(t, ts, id, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()

	// Wait decisively past the drain deadline so the cancellation has
	// fired, then let the blocked repetition finish.
	time.Sleep(500 * time.Millisecond)
	gate <- struct{}{}
	err := <-drained
	if err == nil {
		t.Fatal("forced drain reported success")
	}
	j, _ := s.jobByID(id)
	if j.State() != StateFailed {
		t.Fatalf("canceled job state = %v, want error", j.State())
	}
	rec, ok := store.ByID(id)
	if !ok {
		t.Fatal("canceled job missing from the journal: an accepted job was lost")
	}
	if rec.Status != "error" {
		t.Fatalf("canceled job journaled as %q", rec.Status)
	}
}

// TestCompareExcludesOneOnKnownGap seeds the store with a population that
// has a real 2x classic-vs-lockfree gap and expects the bootstrap interval
// to exclude 1.0.
func TestCompareExcludesOneOnKnownGap(t *testing.T) {
	s, store := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(id, kit string, times []int64) resultstore.Record {
		var sum int64
		for _, v := range times {
			sum += v
		}
		return resultstore.Record{
			ID: id, Workload: "radix", Kit: kit, Threads: 4, Scale: "small",
			Seed: 1, Reps: len(times), Status: "ok", TimesNS: times,
			MeanNS: sum / int64(len(times)),
		}
	}
	classic := []int64{2_000_000, 2_100_000, 1_950_000, 2_050_000, 2_020_000}
	lockfree := []int64{1_000_000, 1_020_000, 980_000, 1_010_000, 990_000}
	if err := store.Append(mk("c1", "classic", classic)); err != nil {
		t.Fatal(err)
	}
	if err := store.Append(mk("l1", "lockfree", lockfree)); err != nil {
		t.Fatal(err)
	}

	code, body := getJSON(t, ts.URL+"/compare?workload=radix&threads=4&scale=small&resamples=2000&seed=3")
	if code != http.StatusOK {
		t.Fatalf("GET /compare = %d (%v)", code, body)
	}
	if body["excludes_one"] != true {
		t.Fatalf("a 2x gap failed significance: %v", body)
	}
	speedup := body["speedup"].(float64)
	if speedup < 1.8 || speedup > 2.3 {
		t.Fatalf("speedup = %v, want ~2", speedup)
	}
	ci := body["ci"].(map[string]any)
	if !(ci["lo"].(float64) > 1) {
		t.Fatalf("interval low bound %v does not exceed 1", ci["lo"])
	}

	// Sanity on the no-data path.
	code, _ = getJSON(t, ts.URL+"/compare?workload=fft&threads=4&scale=small")
	if code != http.StatusNotFound {
		t.Fatalf("compare without data = %d, want 404", code)
	}
}

// TestMetricsExposition checks the Prometheus text surface: gauges,
// counters and a run-duration histogram series with coherent cumulative
// buckets.
func TestMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postRun(t, ts, `{"workload":"fft","kit":"lockfree","threads":2,"scale":"test","reps":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	waitStatus(t, ts, body["id"].(string), "done")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		text.WriteString(sc.Text())
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{
		"splash4d_queue_depth 0",
		"splash4d_queue_capacity 8",
		"splash4d_jobs_accepted_total 1",
		"splash4d_jobs_completed_total 1",
		"splash4d_jobs_inflight 0",
		`splash4d_run_duration_seconds_bucket{workload="fft",kit="lockfree",le="+Inf"} 2`,
		`splash4d_run_duration_seconds_count{workload="fft",kit="lockfree"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, out)
		}
	}
}

// TestBadRequests exercises the 400/404 surfaces.
//
//sync4:covers SYNC4-SERVE-001
func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, spec := range []string{
		`{`,
		`{"workload":"no-such-workload","kit":"classic"}`,
		`{"workload":"fft","kit":"hybrid"}`,
		`{"workload":"fft","kit":"classic","scale":"galactic"}`,
		`{"workload":"fft","kit":"classic","reps":100000}`,
		`{"workload":"fft","kit":"classic","unknown_field":1}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", spec, resp.StatusCode)
		}
	}
	for _, path := range []string{"/runs/r-999", "/runs/r-999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
}

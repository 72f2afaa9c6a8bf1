package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
	"repro/internal/telemetry"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the access log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// viewSpans re-decodes the job view's spans array into telemetry.Span
// values, exercising the same wire format the access log uses.
func viewSpans(t *testing.T, body map[string]any) []telemetry.Span {
	t.Helper()
	raw, ok := body["spans"]
	if !ok {
		t.Fatalf("job view has no spans: %v", body)
	}
	enc, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var spans []telemetry.Span
	if err := json.Unmarshal(enc, &spans); err != nil {
		t.Fatalf("decoding spans %s: %v", enc, err)
	}
	return spans
}

// TestSpanChainBothKits runs a real workload under each kit and checks the
// acceptance contract: the lifecycle span chain is complete, contiguous
// (gap+overlap within 1% of wall time), covers at least 99% of the job's
// observed wall time, and reaches the access log under the job's request ID.
func TestSpanChainBothKits(t *testing.T) {
	logBuf := &syncBuffer{}
	accessLog := telemetry.NewAccessLog(logBuf)
	s, _ := newTestServer(t, Config{Workers: 2, QueueCapacity: 8, AccessLog: accessLog})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqIDs := map[string]string{}
	for _, kit := range []string{"classic", "lockfree"} {
		spec := fmt.Sprintf(`{"workload":"fft","kit":%q,"threads":2,"scale":"test","seed":1,"reps":2}`, kit)
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /runs (%s) = %d (%v)", kit, resp.StatusCode, body)
		}
		headerID := resp.Header.Get("X-Request-ID")
		if headerID == "" {
			t.Fatalf("%s: no X-Request-ID response header", kit)
		}
		if got := body["request_id"]; got != headerID {
			t.Fatalf("%s: job view request_id %v != header %q", kit, got, headerID)
		}

		final := waitStatus(t, ts, body["id"].(string), "done")
		if final["request_id"] != headerID {
			t.Fatalf("%s: terminal view request_id = %v, want %q", kit, final["request_id"], headerID)
		}
		reqIDs[kit] = headerID

		spans := viewSpans(t, final)
		if err := telemetry.ChainPhases(spans); err != nil {
			t.Fatalf("%s: incomplete span chain: %v (%+v)", kit, err, spans)
		}
		submitted, err := time.Parse(time.RFC3339Nano, final["submitted"].(string))
		if err != nil {
			t.Fatal(err)
		}
		finished, err := time.Parse(time.RFC3339Nano, final["finished"].(string))
		if err != nil {
			t.Fatal(err)
		}
		wall := finished.Sub(submitted).Nanoseconds()
		var sum int64
		for _, sp := range spans {
			sum += sp.DurNS()
		}
		// The chain starts at request arrival (before Submitted is stamped)
		// and its last boundary closes after `finished`, so a contiguous
		// chain must cover at least the full observed wall time; 99% is the
		// acceptance floor.
		if wall > 0 && sum < wall*99/100 {
			t.Errorf("%s: span sum %dns < 99%% of wall %dns", kit, sum, wall)
		}
		gap, overlap := telemetry.ChainDefect(spans)
		if limit := wall / 100; gap > limit || overlap > limit {
			t.Errorf("%s: chain gap=%dns overlap=%dns exceeds 1%% of wall %dns", kit, gap, overlap, wall)
		}
		if v, ok := final["span_sum_ns"].(float64); !ok || int64(v) != sum {
			t.Errorf("%s: span_sum_ns = %v, want %d", kit, final["span_sum_ns"], sum)
		}
		// Per-rep spans carry the sync-trace cross-link for drill-down.
		var repTrace int64
		for _, sp := range spans {
			if sp.Phase == telemetry.PhaseRep {
				repTrace += sp.TraceEvents
			}
		}
		if repTrace <= 0 {
			t.Errorf("%s: rep spans carry no trace_events cross-link", kit)
		}
	}

	// Every terminal job must appear in the access log as a kind=job line
	// holding its request ID and complete span chain, beside the kind=http
	// lines of the exchanges that drove it.
	if err := accessLog.Flush(); err != nil {
		t.Fatal(err)
	}
	jobLines := map[string]map[string]any{} // request_id -> entry
	httpLines := 0
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var entry map[string]any
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", sc.Text(), err)
		}
		switch entry["kind"] {
		case "job":
			jobLines[entry["request_id"].(string)] = entry
		case "http":
			httpLines++
		}
	}
	if httpLines == 0 {
		t.Error("access log holds no kind=http line for the exchanges above")
	}
	for kit, id := range reqIDs {
		entry, ok := jobLines[id]
		if !ok {
			t.Fatalf("%s: no access-log job line for request %s", kit, id)
		}
		if entry["status"] != "done" {
			t.Errorf("%s: access-log status = %v", kit, entry["status"])
		}
		spans := viewSpans(t, entry)
		if err := telemetry.ChainPhases(spans); err != nil {
			t.Errorf("%s: access-log span chain: %v", kit, err)
		}
	}
}

// TestRequestIDInbound checks the one inbound-ID rule end to end: an
// X-Request-ID of 1–64 bytes in 0x21–0x7e is echoed in the response,
// attached to the job and carried by its SSE events; anything else is
// replaced by a minted q-<instance>-<seq> ID, which travels the same way.
func TestRequestIDInbound(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, tc := range []struct {
		inbound string
		kept    bool
	}{
		{"trace-abc-123", true},
		{"id\xff", false},
		{"a b", false},
		{strings.Repeat("x", maxRequestIDLen+1), false},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/runs", strings.NewReader(fmt.Sprintf(
			`{"workload":"fft","kit":"lockfree","threads":1,"scale":"test","seed":%d,"reps":1}`, 7+i)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", tc.inbound)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := resp.Header.Get("X-Request-ID")
		if kept := want == tc.inbound; kept != tc.kept || (!kept && !strings.HasPrefix(want, "q-")) {
			t.Fatalf("inbound X-Request-ID %q echoed as %q; kept = %v, want %v", tc.inbound, want, kept, tc.kept)
		}
		if body["request_id"] != want {
			t.Fatalf("inbound %q: job request_id = %v, want %q", tc.inbound, body["request_id"], want)
		}
		id := body["id"].(string)
		waitStatus(t, ts, id, "done")

		// The queued event replays with the request ID attached.
		sseResp, err := http.Get(ts.URL + "/runs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		stream, err := io.ReadAll(sseResp.Body)
		sseResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(stream, []byte(want)) {
			t.Errorf("SSE stream does not carry request ID %q:\n%s", want, stream)
		}
	}
}

// TestAccessLogValidJSONForAnyPath sends requests whose path or request ID
// holds bytes that are not JSON text as they stand — a control character,
// invalid UTF-8 — and requires every access-log line to be valid JSON,
// with the control-character path decoding back to the request's path.
func TestAccessLogValidJSONForAnyPath(t *testing.T) {
	logBuf := &syncBuffer{}
	accessLog := telemetry.NewAccessLog(logBuf)
	s, _ := newTestServer(t, Config{Workers: 1, QueueCapacity: 4, AccessLog: accessLog})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, rawPath := range []string{"/runs/%07", "/runs/%ff"} {
		resp, err := http.Get(ts.URL + rawPath)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "id\xff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := accessLog.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log holds %d lines, want 3:\n%s", len(lines), logBuf)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("access-log line is not JSON: %s", line)
		}
	}
	var first struct{ Path string }
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Path != "/runs/\a" {
		t.Errorf("GET /runs/%%07 logged path %q (%v), want %q", first.Path, err, "/runs/\a")
	}
}

// TestMetricsExpositionWellFormed drives real traffic through the server
// and then validates every /metrics line with the promtext parser and
// linter: names and labels legal, HELP/TYPE present, histogram bucket sets
// cumulative and complete.
func TestMetricsExpositionWellFormed(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two jobs of one shape: the second runs on the first one's recorder.
	for seed := 3; seed <= 4; seed++ {
		code, body := postRun(t, ts, fmt.Sprintf(`{"workload":"fft","kit":"lockfree","threads":1,"scale":"test","seed":%d,"reps":1}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("POST /runs = %d (%v)", code, body)
		}
		waitStatus(t, ts, body["id"].(string), "done")
	}
	// A deliberate 400 so the HTTP status counter has more than one code.
	if code, _ := postRun(t, ts, `{"workload":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", code)
	}

	text := scrapeMetrics(t, ts)
	m, err := promtext.Parse(text)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v\n%s", err, text)
	}
	if problems := promtext.Lint(m); len(problems) != 0 {
		t.Fatalf("metrics exposition lint:\n  %s", strings.Join(problems, "\n  "))
	}

	mustHave := func(name string, labels map[string]string) float64 {
		t.Helper()
		v, ok := m.Value(name, labels)
		if !ok {
			t.Fatalf("metric %s%v missing from exposition", name, labels)
		}
		return v
	}
	if v := mustHave("splash4d_jobs_completed_total", nil); v != 2 {
		t.Errorf("completed_total = %g, want 2", v)
	}
	if alloc, reused := mustHave("splash4d_trace_recorders_allocated_total", nil), mustHave("splash4d_trace_recorders_reused_total", nil); alloc != 1 || reused != 1 {
		t.Errorf("trace recorders allocated = %g, reused = %g; want 1 and 1", alloc, reused)
	}
	mustHave("splash4d_queue_depth", nil)
	mustHave("splash4d_retry_after_seconds", nil)
	mustHave("splash4d_degraded_seconds_total", nil)
	for _, cause := range []string{"ring_full", "degraded", "draining"} {
		mustHave("splash4d_jobs_rejected_total", map[string]string{"cause": cause})
	}
	if v := mustHave("splash4d_http_requests_total", map[string]string{"code": "400"}); v < 1 {
		t.Errorf("http 400 counter = %g, want >= 1", v)
	}
	// Every lifecycle phase observed at least one job's span.
	for _, phase := range []string{"admission", "dedup", "queue", "rep", "journal", "publish"} {
		if v := mustHave("splash4d_phase_duration_seconds_count", map[string]string{"phase": phase}); v < 1 {
			t.Errorf("phase %s count = %g, want >= 1", phase, v)
		}
	}
	mustHave("splash4d_run_duration_seconds_count", map[string]string{"workload": "fft", "kit": "lockfree"})
}

// TestDedupSpanClosesBeforeQueue floods two workers with instant jobs, so a
// worker is always ready to pick a job up the instant the ring publishes
// it, and requires a complete, ordered span chain on every job view: the
// submitter's dedup mark must never land after the worker's queue mark.
func TestDedupSpanClosesBeforeQueue(t *testing.T) {
	bench := &gatedBench{name: "instant"} // nil gate: Run returns at once
	s, _ := newTestServer(t, Config{
		Workers: 2, QueueCapacity: 64, TraceCapacity: 16,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	const jobs = 4000
	all := make([]*Job, 0, jobs)
	for seed := int64(0); seed < jobs; seed++ {
		sp := Spec{Workload: "instant", Kit: "lockfree", Threads: 1, Scale: "test", Seed: seed, Reps: 1}
		for {
			ss := telemetry.NewSpanSet(time.Now(), sp.Reps)
			ss.Mark(telemetry.PhaseAdmission, 0)
			j, _, err := s.submit(sp, "", ss)
			if err == errBusy {
				runtime.Gosched() // ring full: let the workers drain it
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
			break
		}
	}
	// Drain returns once every accepted job has closed its publish span.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range all {
		if err := telemetry.ChainPhases(viewSpans(t, s.jobView(j, false))); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
}

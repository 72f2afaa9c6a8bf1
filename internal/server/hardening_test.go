package server

import (
	"bufio"
	"context"
	"errors"
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

// newFaultyServer builds a server whose journal has injectable faults and
// runs under SyncAlways — the production configuration, where an
// acknowledged result is on disk.
func newFaultyServer(t *testing.T, cfg Config) (*Server, *resultstore.Store, *resultstore.Faults) {
	t.Helper()
	faults := &resultstore.Faults{}
	store, err := resultstore.OpenWithOptions(filepath.Join(t.TempDir(), "results.jsonl"),
		resultstore.Options{Sync: resultstore.SyncAlways, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Clear every fault first: shutdown must not trip over leftovers.
		faults.FailWrites(nil)
		faults.FailSync(nil)
		faults.FailClose(nil)
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		store.Close()
	})
	return s, store, faults
}

// TestDegradedModeServesReadsAndRecovers is the failure-semantics
// acceptance path: under an injected journal write failure the daemon
// keeps serving reads, refuses writes with 503, reports not-ready on
// /readyz while staying alive on /healthz — and recovers by itself once
// the fault clears.
//
//sync4:covers SYNC4-SERVE-004 SYNC4-SERVE-008
func TestDegradedModeServesReadsAndRecovers(t *testing.T) {
	bench := &gatedBench{name: "gated"} // nil gate: runs complete instantly
	s, store, faults := newFaultyServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A healthy baseline job, journaled and readable.
	code, bodyA := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("baseline POST = %d", code)
	}
	idA := bodyA["id"].(string)
	waitStatus(t, ts, idA, "done")

	// The write path starts failing; the next job's result cannot be
	// journaled, so the job fails and the server degrades.
	injected := errors.New("injected ENOSPC")
	faults.FailWrites(injected)
	code, bodyB := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST before degradation detected = %d, want 202", code)
	}
	viewB := waitStatus(t, ts, bodyB["id"].(string), "error")
	if !strings.Contains(viewB["error"].(string), "injected ENOSPC") {
		t.Fatalf("job error %q does not surface the journal failure", viewB["error"])
	}
	if !s.Degraded() {
		t.Fatal("server not degraded after the journal write path failed")
	}

	// Degraded mode: writes bounce with 503 + Retry-After…
	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"gated","kit":"lockfree","threads":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while degraded = %d, want 503", resp.StatusCode)
	}
	if _, err := retryAfter(resp); err != nil {
		t.Fatalf("degraded %v", err)
	}

	// …reads keep working…
	code, view := getJSON(t, ts.URL+"/runs/"+idA)
	if code != http.StatusOK || view["status"] != "done" {
		t.Fatalf("read while degraded = %d %v", code, view)
	}

	// …liveness stays green (restarting would not fix the disk), readiness
	// goes red.
	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("healthz while degraded = %d %v, want 200/degraded", code, health)
	}
	code, ready := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready["status"] != "not_ready" {
		t.Fatalf("readyz while degraded = %d %v, want 503/not_ready", code, ready)
	}

	// The degraded gauge and the retry counter are exported.
	metrics := scrapeMetrics(t, ts)
	for _, want := range []string{"splash4d_degraded 1", "splash4d_append_retries_total 2"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q while degraded", want)
		}
	}

	// The fault clears: the next submission's recovery probe re-admits
	// traffic, the job completes, and its result is journaled.
	faults.FailWrites(nil)
	code, bodyC := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST after fault cleared = %d, want 202 (recovery probe failed?)", code)
	}
	idC := bodyC["id"].(string)
	waitStatus(t, ts, idC, "done")
	if s.Degraded() {
		t.Fatal("server still degraded after a successful append")
	}
	if _, ok := store.ByID(idC); !ok {
		t.Fatal("post-recovery result missing from the journal")
	}
	if code, ready := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK || ready["status"] != "ready" {
		t.Fatalf("readyz after recovery = %d %v", code, ready)
	}
}

// TestReadyzRecoveryProbe: the readiness endpooint itself clears degraded
// mode once the journal works again, so an orchestrator's health checks
// drive recovery without any submission traffic.
//
//sync4:covers SYNC4-SERVE-007
func TestReadyzRecoveryProbe(t *testing.T) {
	bench := &gatedBench{name: "gated"}
	s, _, faults := newFaultyServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	injected := errors.New("injected EIO")
	faults.FailWrites(injected)
	_, body := postRun(t, ts, `{"workload":"gated","kit":"classic","threads":1,"seed":1}`)
	waitStatus(t, ts, body["id"].(string), "error")
	if !s.Degraded() {
		t.Fatal("not degraded after journal failure")
	}
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with the fault still armed, want 503", code)
	}

	faults.FailWrites(nil)
	if code, _ := getJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d after the fault cleared, want 200", code)
	}
	if s.Degraded() {
		t.Fatal("readiness probe did not clear degraded mode")
	}
}

// TestJobTimeoutFailsJob: a job that exceeds its execution budget fails
// with a timeout error instead of occupying its worker forever. The rep
// watchdog is pushed out of the way so the job-level deadline is what
// fires.
//
//sync4:covers SYNC4-SERVE-011
func TestJobTimeoutFailsJob(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		JobTimeout: 150 * time.Millisecond, RepTimeout: time.Hour,
		Resolver: wedgeOrFreeResolver(gate),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postRun(t, ts, `{"workload":"wedge","kit":"lockfree","threads":1,"reps":3}`)
	view := waitStatus(t, ts, body["id"].(string), "error")
	if !strings.Contains(view["error"].(string), "execution timeout") {
		t.Fatalf("job error %q does not name the execution timeout", view["error"])
	}
	// The worker is free again: an unblocked job runs to completion.
	_, body2 := postRun(t, ts, `{"workload":"free","kit":"lockfree","threads":1,"seed":9}`)
	waitStatus(t, ts, body2["id"].(string), "done")
}

// wedgeOrFreeResolver serves two controllable workloads: "wedge" blocks
// every Run on the gate, "free" completes instantly.
func wedgeOrFreeResolver(gate chan struct{}) func(string) (core.Benchmark, error) {
	wedge := &gatedBench{name: "wedge", gate: gate}
	free := &gatedBench{name: "free"}
	return func(name string) (core.Benchmark, error) {
		switch name {
		case "wedge":
			return wedge, nil
		case "free":
			return free, nil
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

// TestStalledJobEmitsDiagnosis: a repetition that wedges under the armed
// watchdog fails the job with a stall event and a diagnosis summary in
// the job view, and the worker moves on.
//
//sync4:covers SYNC4-SERVE-011
func TestStalledJobEmitsDiagnosis(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		JobTimeout: time.Hour, RepTimeout: 100 * time.Millisecond,
		Resolver: wedgeOrFreeResolver(gate),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postRun(t, ts, `{"workload":"wedge","kit":"lockfree","threads":1}`)
	id := body["id"].(string)
	view := waitStatus(t, ts, id, "error")
	if !strings.Contains(view["error"].(string), "stalled") {
		t.Fatalf("job error %q does not report the stall", view["error"])
	}
	stall, _ := view["stall"].(string)
	if !strings.Contains(stall, "deadlock") {
		t.Fatalf("job view stall summary %q lacks the classification", stall)
	}
	types := sseEvents(t, ts, id)
	want := []string{"queued", "started", "stall", "error"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("SSE events = %v, want %v", types, want)
	}

	// The stalled rep was abandoned, not inherited: the worker accepts and
	// completes the next job.
	_, body2 := postRun(t, ts, `{"workload":"free","kit":"lockfree","threads":1,"seed":2}`)
	waitStatus(t, ts, body2["id"].(string), "done")
}

// TestAdaptiveRetryAfter: the 429 Retry-After hint grows with the
// backlog instead of sitting at a constant.
//
//sync4:covers SYNC4-SERVE-003
func TestAdaptiveRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 1,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One running + two queued fills the two-slot ring.
	_, bodyA := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":1}`)
	waitStatus(t, ts, bodyA["id"].(string), "running")
	postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":2}`)
	postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":3}`)

	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"gated","kit":"lockfree","threads":1,"seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST over full ring = %d, want 429", resp.StatusCode)
	}
	secs, err := retryAfter(resp)
	if err != nil {
		t.Fatal(err)
	}
	// Backlog is 3 (1 running + 2 queued) over 1 worker: the hint must
	// reflect it, not the old constant 1.
	if secs < 2 {
		t.Fatalf("Retry-After = %d, want a backlog-scaled value in [2, 30]", secs)
	}
	close(gate)
}

// TestHealthzLivenessDuringDrain: draining is a readiness signal, not a
// liveness one.
//
//sync4:covers SYNC4-SERVE-006
func TestHealthzLivenessDuringDrain(t *testing.T) {
	gate := make(chan struct{})
	bench := &gatedBench{name: "gated", gate: gate}
	s, _ := newTestServer(t, Config{
		Workers: 1, QueueCapacity: 4,
		Resolver: func(string) (core.Benchmark, error) { return bench, nil },
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postRun(t, ts, `{"workload":"gated","kit":"lockfree","threads":1,"seed":1}`)
	waitStatus(t, ts, body["id"].(string), "running")

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "draining" {
		t.Fatalf("healthz during drain = %d %v, want 200/draining", code, health)
	}
	code, ready := getJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready["status"] != "not_ready" {
		t.Fatalf("readyz during drain = %d %v, want 503/not_ready", code, ready)
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// scrapeMetrics fetches /metrics as text.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String()
}

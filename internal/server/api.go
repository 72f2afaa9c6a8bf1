package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// maxBodyBytes bounds POST /runs request bodies; a spec is tiny.
const maxBodyBytes = 1 << 16

// writeJSON renders one response body. Encoding a value this package built
// cannot fail in a way the client can act on, so encoder errors (a closed
// connection, typically) are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /runs: admit one measurement job.
//
//	202 {job}            accepted, freshly queued
//	200 {job}            identical spec already queued/running (singleflight)
//	400 {error}          malformed body or unusable spec
//	429 {error}          admission ring full — retry after Retry-After
//	503 {error}          server is draining, or degraded (journal write
//	                     path down; reads still served)
//
// Every 429/503 carries a Retry-After header; the client retry contract
// is documented in docs/SERVICE.md.
//
//sync4:req SYNC4-SERVE-001 v1 MUST POST /runs rejects a malformed or unusable submission with 400 and a JSON error body, admitting nothing.
//sync4:req SYNC4-SERVE-002 v1 MUST When the admission ring is full, POST /runs answers 429 with a Retry-After header instead of blocking or silently dropping the request.
//sync4:req SYNC4-SERVE-003 v1 MUST The 429 Retry-After hint grows with the backlog, so bounced clients spread their retries instead of returning in lockstep.
//sync4:req SYNC4-SERVE-004 v1 MUST While draining or degraded, POST /runs answers 503 with a Retry-After header; existing jobs and reads keep being served.
//sync4:req SYNC4-SERVE-005 v1 MUST Identical in-flight submissions coalesce onto one job: the creating request gets 202, later twins get 200 with the same job marked deduped.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding run spec: %v", err)
		return
	}
	if err := s.validateSpec(&sp); err != nil {
		writeError(w, http.StatusBadRequest, "invalid run spec: %v", err)
		return
	}
	// Start the lifecycle span chain at the request's arrival instant and
	// close the admission phase: the spec is parsed, validated, and about
	// to enter dedup resolution. The chain has room for one span per
	// repetition plus every fixed phase.
	info := requestInfo(r)
	ss := telemetry.NewSpanSet(info.start, sp.Reps)
	ss.Mark(telemetry.PhaseAdmission, 0)
	job, created, err := s.submit(sp, info.id, ss)
	switch {
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, errDegraded):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, errBusy):
		// Adaptive backpressure: the deeper the backlog, the longer the
		// suggested wait, so bounced clients spread their retries instead
		// of hammering a full ring in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobView(job, !created))
}

// handleStatus is GET /runs/{id}: the job's current state and, once done,
// its result.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(job, false))
}

// jobView renders one job for the JSON API.
func (s *Server) jobView(j *Job, deduped bool) map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := map[string]any{
		"id":         j.ID,
		"status":     j.State().String(),
		"workload":   j.Spec.Workload,
		"kit":        j.Spec.Kit,
		"threads":    j.Spec.Threads,
		"scale":      j.Spec.Scale,
		"seed":       j.Spec.Seed,
		"reps":       j.Spec.Reps,
		"warmup":     j.Spec.Warmup,
		"submitted":  j.Submitted.UTC().Format(time.RFC3339Nano),
		"request_id": j.RequestID,
	}
	if s.cfg.NodeID != "" {
		v["node"] = s.cfg.NodeID
	}
	if j.ranOn != "" {
		v["ran_on"] = j.ranOn
	}
	if deduped {
		v["deduped"] = true
	}
	// The lifecycle span chain closed so far: complete (admission through
	// publish) once the job is terminal, a prefix while it runs.
	if spans := j.chain(); len(spans) > 0 {
		v["spans"] = spans
		v["span_sum_ns"] = spanSum(spans)
	}
	if !j.started.IsZero() {
		v["started"] = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v["finished"] = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.errMsg != "" {
		v["error"] = j.errMsg
	}
	if j.stall != "" {
		v["stall"] = j.stall
	}
	if j.State() == StateDone {
		v["result"] = map[string]any{
			"mean_ns":      j.result.MeanNS,
			"times_ns":     j.result.TimesNS,
			"trace_events": j.result.TraceEvents,
			"sync_ops":     j.result.SyncOps,
		}
	}
	return v
}

// spanSum totals the closed spans' durations.
func spanSum(spans []telemetry.Span) int64 {
	var sum int64
	for _, s := range spans {
		sum += s.DurNS()
	}
	return sum
}

// handleEvents is GET /runs/{id}/events: a Server-Sent-Events stream of the
// job's progress. Events already emitted are replayed first (a subscriber
// arriving after completion still sees the full queued→…→done sequence in
// order), then live events follow until the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Channel capacity covers the worst case: every remaining event of a
	// max-reps job arriving while this subscriber is between reads.
	replay, ch, cancel := job.subscribe(maxReps + 8)
	defer cancel()
	if _, err := w.Write(replay); err != nil {
		return
	}
	fl.Flush()
	if ch == nil {
		return // job already terminal; the replay was the whole story
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case frame, ok := <-ch:
			if !ok {
				return // the terminal event was the last frame
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// retryAfterSeconds estimates when a bounced (429) submission is worth
// retrying: roughly a second per backlogged job per worker, clamped to
// [1, 30] so the hint stays useful under any load.
func (s *Server) retryAfterSeconds() int {
	backlog := s.queue.Len() + int(s.inflight.Load())
	secs := 1 + backlog/s.cfg.Workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// handleHealthz is GET /healthz: pure liveness. It answers 200 as long as
// the process can serve HTTP — draining and degraded are reported in the
// status field but are readiness concerns (GET /readyz), not liveness
// ones: restarting a draining or degraded daemon would only lose work.
//
//sync4:req SYNC4-SERVE-006 v1 MUST GET /healthz answers 200 whenever the process can serve HTTP — including while draining or degraded; liveness never reports readiness conditions as failure.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	switch {
	case s.draining.Load():
		status = "draining"
	case s.degraded.Load():
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"uptime_s":    int64(time.Since(s.start).Seconds()),
		"queue_depth": s.queue.Len(),
		"inflight":    s.inflight.Load(),
	})
}

// handleReadyz is GET /readyz: readiness to accept new submissions. 503
// while draining or degraded (with the reasons), 200 otherwise. The
// degraded check probes the journal first, so a cleared disk fault flips
// the daemon back to ready on the next probe without a restart.
//
//sync4:req SYNC4-SERVE-007 v1 MUST GET /readyz answers 503 with reasons while draining or degraded, re-probes the journal on every check, and returns to 200 on its own once the write path recovers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if !s.probeRecovery() {
		reasons = append(reasons, "degraded: result journal write path failing")
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":  "not_ready",
			"reasons": reasons,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// handleMetrics is GET /metrics: Prometheus text exposition format,
// hand-rendered — the module stays dependency-free. Gauges and counters
// come from the pipeline's lock-free counters; the per-series run-duration
// histograms reuse stats.Histogram's log-spaced buckets as cumulative
// Prometheus buckets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("splash4d_queue_depth", "Jobs admitted but not yet picked up by a worker.", s.queue.Len())
	gauge("splash4d_queue_capacity", "Capacity of the lock-free admission ring.", s.queueCap)
	gauge("splash4d_workers", "Size of the execution worker pool.", s.cfg.Workers)
	gauge("splash4d_jobs_inflight", "Jobs currently executing.", s.inflight.Load())
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	gauge("splash4d_draining", "1 while the server refuses new submissions.", draining)
	degraded := 0
	if s.degraded.Load() {
		degraded = 1
	}
	gauge("splash4d_degraded", "1 while the journal write path is failing and the server serves reads only.", degraded)
	gauge("splash4d_store_records", "Results in the persistent store, including replayed history.", s.store.Len())
	// The Retry-After a rejected submission would be advised right now —
	// exported so load generators can assert the retry contract from the
	// scrape instead of having to provoke a 429 and read its headers.
	gauge("splash4d_retry_after_seconds", "Retry-After value the next rejected submission would receive.", s.retryAfterSeconds())

	counter("splash4d_jobs_accepted_total", "Jobs admitted to the queue.", s.accepted.Load())
	counter("splash4d_jobs_completed_total", "Jobs that finished successfully.", s.completed.Load())
	counter("splash4d_jobs_failed_total", "Jobs that ended in an error (including canceled).", s.failed.Load())
	counter("splash4d_jobs_deduped_total", "Submissions answered by an already-active identical job.", s.deduped.Load())
	counter("splash4d_append_retries_total", "Journal appends that failed and were retried.", s.appendRetries.Load())
	counter("splash4d_trace_recorders_reused_total", "Jobs that ran on a recycled trace recorder.", s.recorders.reused.Load())
	counter("splash4d_trace_recorders_allocated_total", "Jobs that had to allocate a fresh trace recorder (cold pool, new thread count, or the last one was lost to a stalled job).", s.recorders.allocated.Load())

	// Work-stealing flow (clustered deployments; all zero single-node).
	gauge("splash4d_jobs_stolen_outstanding", "Donated jobs whose outcome a peer still owes.", s.StolenCount())
	counter("splash4d_jobs_donated_total", "Queued jobs handed to stealing peers.", s.donated.Load())
	counter("splash4d_jobs_reclaimed_total", "Donated jobs taken back after the thief went quiet.", s.reclaimed.Load())

	// Rejections split by cause: ring_full is the 429 backpressure path,
	// degraded and draining are the 503 paths.
	fmt.Fprintf(&b, "# HELP %[1]s Submissions refused, by cause (ring_full=429, degraded/draining=503).\n# TYPE %[1]s counter\n", "splash4d_jobs_rejected_total")
	fmt.Fprintf(&b, "splash4d_jobs_rejected_total{cause=\"ring_full\"} %d\n", s.rejected.Load())
	fmt.Fprintf(&b, "splash4d_jobs_rejected_total{cause=\"degraded\"} %d\n", s.rejectedDegraded.Load())
	fmt.Fprintf(&b, "splash4d_jobs_rejected_total{cause=\"draining\"} %d\n", s.rejectedDraining.Load())

	// Cumulative time spent degraded, including the open window: the
	// series an error-budget burn alert watches.
	fmt.Fprintf(&b, "# HELP %[1]s Cumulative seconds spent in degraded (read-only) mode.\n# TYPE %[1]s counter\n", "splash4d_degraded_seconds_total")
	fmt.Fprintf(&b, "splash4d_degraded_seconds_total %g\n", s.degradedTotal().Seconds())

	s.writeHTTPCounters(&b)
	s.writePhaseHistograms(&b)
	s.writeHistograms(&b)
	// Cluster metric families (peer health, steal counts, ship lag), when
	// this node is clustered.
	if h := s.hooks.Load(); h != nil && h.Metrics != nil {
		h.Metrics(&b)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// writeHTTPCounters renders the per-status-code request counters.
func (s *Server) writeHTTPCounters(b *strings.Builder) {
	codes := s.httpCodesSnapshot()
	if len(codes) == 0 {
		return
	}
	keys := make([]int, 0, len(codes))
	for c := range codes {
		keys = append(keys, c)
	}
	sort.Ints(keys)
	const name = "splash4d_http_requests_total"
	fmt.Fprintf(b, "# HELP %s HTTP requests served, by response status code.\n# TYPE %s counter\n", name, name)
	for _, c := range keys {
		fmt.Fprintf(b, "%s{code=\"%d\"} %d\n", name, c, codes[c])
	}
}

// writePhaseHistograms renders the per-phase job lifecycle latency series
// from the telemetry registry, one labeled histogram per phase.
func (s *Server) writePhaseHistograms(b *strings.Builder) {
	const name = "splash4d_phase_duration_seconds"
	var any bool
	for p := telemetry.Phase(0); int(p) < telemetry.NumPhases; p++ {
		h := s.phases.Snapshot(p)
		if h.N() == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(b, "# HELP %s Job lifecycle phase durations (admission, dedup, queue, rep, journal, publish).\n# TYPE %s histogram\n", name, name)
			any = true
		}
		writeHistogram(b, name, fmt.Sprintf("phase=%q", p.String()), h)
	}
}

// writeHistogram renders one labeled histogram series. The
// stats.Histogram's power-of-two buckets become the cumulative `le` bounds,
// converted from nanoseconds to Prometheus' canonical seconds.
func writeHistogram(b *strings.Builder, name, labels string, h *stats.Histogram) {
	var cum int64
	for _, bucket := range h.Buckets() {
		cum += bucket.Count
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, float64(bucket.Hi)/1e9, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, h.N())
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, labels, float64(h.Sum())/1e9)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, h.N())
}

// writeHistograms renders every (workload, kit) run-duration series.
func (s *Server) writeHistograms(b *strings.Builder) {
	s.histMu.Lock()
	keys := make([]histKey, 0, len(s.hists))
	for k := range s.hists {
		keys = append(keys, k)
	}
	// Snapshot each histogram under the lock so rendering happens outside.
	snaps := make(map[histKey]*stats.Histogram, len(keys))
	for _, k := range keys {
		h := stats.NewHistogram()
		h.Merge(s.hists[k])
		snaps[k] = h
	}
	s.histMu.Unlock()

	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].kit < keys[j].kit
	})
	const name = "splash4d_run_duration_seconds"
	fmt.Fprintf(b, "# HELP %s Wall time of measured benchmark repetitions.\n# TYPE %s histogram\n", name, name)
	for _, k := range keys {
		writeHistogram(b, name, fmt.Sprintf(`workload=%q,kit=%q`, k.workload, k.kit), snaps[k])
	}
}

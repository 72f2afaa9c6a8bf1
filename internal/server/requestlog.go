package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Request-ID propagation and the HTTP access log. Every request entering
// the daemon is assigned a request ID at admission (or keeps the one a
// well-behaved proxy already attached), carries it through the handler via
// the request context, and has it echoed in the X-Request-ID response
// header. When the response completes, one "http" line lands in the
// structured access log; a job created by the request inherits the ID for
// its lifecycle span chain, SSE events, job views, and journal record, so
// one grep over the access log follows a request end to end.

// reqInfo travels in the request context: the propagated request ID and
// the arrival instant (the epoch of any span chain the request starts).
type reqInfo struct {
	id    string
	start time.Time
}

type reqInfoKey struct{}

// requestInfo returns the context's request info; requests that somehow
// bypass the middleware (direct handler tests) get a synthetic one.
func requestInfo(r *http.Request) reqInfo {
	if info, ok := r.Context().Value(reqInfoKey{}).(reqInfo); ok {
		return info
	}
	return reqInfo{id: "untracked", start: time.Now()}
}

// maxRequestIDLen bounds an inbound X-Request-ID; longer values are
// replaced, not truncated, so IDs stay unambiguous.
const maxRequestIDLen = 64

// EnsureRequestID is the one rule for inbound request IDs. It keeps the
// request's X-Request-ID when that is 1–64 bytes, each in 0x21–0x7e
// (printable ASCII, no space), and mints q-<instance>-<seq> otherwise: the
// ID reaches the access log, job views, SSE events and the journal, so
// outside bytes are kept only when they are plain text in all of them.
// withTelemetry calls it at arrival, and the cluster forwarder before a
// peer hop so the ID exists on both nodes' access logs.
func (s *Server) EnsureRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > maxRequestIDLen {
		return s.nextRequestID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return s.nextRequestID()
		}
	}
	return id
}

// nextRequestID mints a process-unique request ID: a per-process random
// prefix plus a sequence number.
func (s *Server) nextRequestID() string {
	n := s.reqSeq.Add(1)
	return "q-" + s.reqPrefix + "-" + strconv.FormatInt(n, 10)
}

// statusWriter captures the response status and size for the access log.
// It forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying flusher, if any.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// withTelemetry wraps the API mux with request-ID propagation, the HTTP
// access log, and the per-status-code request counters.
func (s *Server) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.EnsureRequestID(r)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, reqInfo{id: id, start: start})
		h.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.countStatus(sw.status)
		s.accessLog.HTTP(telemetryHTTPEntry(start, id, r, sw))
	})
}

// telemetryHTTPEntry assembles one access-log line for a completed
// exchange.
func telemetryHTTPEntry(start time.Time, id string, r *http.Request, sw *statusWriter) telemetry.HTTPEntry {
	return telemetry.HTTPEntry{
		Time:      start,
		RequestID: id,
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    sw.status,
		DurNS:     time.Since(start).Nanoseconds(),
		Bytes:     sw.bytes,
	}
}

// countStatus bumps the per-code request counter.
func (s *Server) countStatus(code int) {
	s.httpMu.Lock()
	s.httpCodes[code]++
	s.httpMu.Unlock()
}

// httpCodesSnapshot copies the per-code counters for /metrics.
func (s *Server) httpCodesSnapshot() map[int]int64 {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	out := make(map[int]int64, len(s.httpCodes))
	for c, n := range s.httpCodes {
		out[c] = n
	}
	return out
}

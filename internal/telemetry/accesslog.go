package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// AccessLog is a structured JSONL log of service activity. Two entry kinds
// share the stream, distinguished by their "kind" field:
//
//	{"kind":"http","ts":...,"request_id":...,"method":...,"path":...,
//	 ["peer":...,]"status":...,"dur_ns":...,"bytes":...}
//	{"kind":"job","ts":...,"request_id":...,"job_id":...,"workload":...,
//	 "kit":...,["node":...,]["ran_on":...,]"status":...,"wall_ns":...,
//	 "spans":[{...},...]}
//
// The optional peer/node/ran_on fields appear on clustered deployments:
// peer names the node an http exchange was proxied to, node is the job's
// owning node, ran_on the executing node when work stealing moved the
// repetitions to a peer (see docs/CLUSTER.md).
//
// An "http" line is written when a request's response completes; a "job"
// line when an accepted job reaches its terminal state, carrying the full
// lifecycle span chain so the access log alone reconstructs where every
// nanosecond of the job went.
//
// Lines are written by encoding/json, so every line is valid JSON whatever
// bytes a path or header carried. Field order is the entry struct's, which
// keeps the log diffable and greppable; HTML characters are not escaped.
// One mutex covers encoding and writing, so concurrent handlers interleave
// whole lines, never bytes.
type AccessLog struct {
	mu   sync.Mutex
	w    *bufio.Writer
	enc  *json.Encoder
	c    io.Closer
	errs int // write errors, surfaced by Err
	err  error
}

// NewAccessLog logs to w. The caller retains ownership of w; Close only
// flushes.
func NewAccessLog(w io.Writer) *AccessLog {
	bw := bufio.NewWriterSize(w, 32*1024)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	return &AccessLog{w: bw, enc: enc}
}

// OpenAccessLog appends to the JSONL file at path, creating it if needed.
func OpenAccessLog(path string) (*AccessLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening access log: %w", err)
	}
	l := NewAccessLog(f)
	l.c = f
	return l, nil
}

// HTTPEntry is one completed HTTP exchange.
type HTTPEntry struct {
	Time      time.Time `json:"ts"`
	RequestID string    `json:"request_id"`
	Method    string    `json:"method"`
	Path      string    `json:"path"`
	// Peer names the cluster peer that actually served the exchange when
	// this node proxied it there; empty for locally-served requests.
	Peer   string `json:"peer,omitempty"`
	Status int    `json:"status"`
	DurNS  int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes"`
}

// JobEntry is one terminal job with its lifecycle span chain.
type JobEntry struct {
	Time      time.Time `json:"ts"`
	RequestID string    `json:"request_id"`
	JobID     string    `json:"job_id"`
	Workload  string    `json:"workload"`
	Kit       string    `json:"kit"`
	// Node is the cluster node that owns the job (journaled its record);
	// RanOn is the node that executed it when work stealing moved the
	// repetitions elsewhere. Both empty on single-node deployments; a
	// stolen job's line names both nodes.
	Node   string `json:"node,omitempty"`
	RanOn  string `json:"ran_on,omitempty"`
	Status string `json:"status"` // "done" or "error"
	WallNS int64  `json:"wall_ns"`
	Spans  []Span `json:"spans"`
}

// HTTP appends one http line. Write errors are counted, not returned: the
// access log is diagnostics and must never fail a request.
func (l *AccessLog) HTTP(e HTTPEntry) {
	if l == nil {
		return
	}
	e.Time = e.Time.UTC()
	l.write(struct {
		Kind string `json:"kind"`
		HTTPEntry
	}{"http", e})
}

// Job appends one job line.
func (l *AccessLog) Job(e JobEntry) {
	if l == nil {
		return
	}
	e.Time = e.Time.UTC()
	if e.Spans == nil {
		e.Spans = []Span{} // an empty chain renders as [], not null
	}
	l.write(struct {
		Kind string `json:"kind"`
		JobEntry
	}{"job", e})
}

// write encodes one line under mu.
func (l *AccessLog) write(v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.enc.Encode(v); err != nil {
		l.errs++
		l.err = err
	}
}

// Err returns the most recent write error and how many writes failed.
func (l *AccessLog) Err() (int, error) {
	if l == nil {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errs, l.err
}

// Flush forces buffered lines to the underlying writer.
func (l *AccessLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

// Close flushes and, when the log owns its sink (OpenAccessLog), closes it.
func (l *AccessLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if l.c != nil {
		if cerr := l.c.Close(); err == nil {
			err = cerr
		}
		l.c = nil
	}
	return err
}

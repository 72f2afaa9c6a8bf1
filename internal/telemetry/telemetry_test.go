package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanSetTiling: boundary-marked spans tile the chain perfectly — no
// gaps, no overlaps, sum equals the final boundary.
func TestSpanSetTiling(t *testing.T) {
	ss := NewSpanSet(time.Now(), 3)
	ss.Mark(PhaseAdmission, 0)
	ss.Mark(PhaseDedup, 0)
	ss.Mark(PhaseQueue, 0)
	for rep := 0; rep < 3; rep++ {
		time.Sleep(time.Millisecond)
		ss.Mark(PhaseRep, rep)
	}
	ss.Mark(PhaseJournal, 0)
	ss.Mark(PhasePublish, 0)

	spans := ss.Spans()
	if len(spans) != 8 {
		t.Fatalf("got %d spans, want 8", len(spans))
	}
	gap, overlap := ChainDefect(spans)
	if gap != 0 || overlap != 0 {
		t.Fatalf("gap=%d overlap=%d, want 0/0", gap, overlap)
	}
	if err := ChainPhases(spans); err != nil {
		t.Fatalf("chain incomplete: %v", err)
	}
	if got, want := ss.SumNS(), spans[len(spans)-1].End; got != want {
		t.Fatalf("SumNS=%d, want final boundary %d", got, want)
	}
	if spans[0].Start != 0 {
		t.Fatalf("first span starts at %d, want 0 (the epoch)", spans[0].Start)
	}
	for i, s := range spans {
		if s.Phase == PhaseRep {
			if s.Rep != i-3 {
				t.Errorf("rep span %d has Rep=%d, want %d", i, s.Rep, i-3)
			}
		} else if s.Rep != -1 {
			t.Errorf("non-rep span %d has Rep=%d, want -1", i, s.Rep)
		}
	}
	if ss.Dropped() != 0 {
		t.Fatalf("dropped=%d, want 0", ss.Dropped())
	}
}

// TestSpanSetDropBeyondCapacity: marks past the preallocated chain are
// counted, never grown.
func TestSpanSetDropBeyondCapacity(t *testing.T) {
	ss := NewSpanSet(time.Now(), 0)
	for i := 0; i < NumPhases+5; i++ {
		ss.Mark(PhaseQueue, 0)
	}
	if got := len(ss.Spans()); got != NumPhases {
		t.Fatalf("recorded %d spans, want capacity %d", got, NumPhases)
	}
	if got := ss.Dropped(); got != 5 {
		t.Fatalf("dropped=%d, want 5", got)
	}
}

// TestSpanSetNil: a nil SpanSet is inert on every method.
func TestSpanSetNil(t *testing.T) {
	var ss *SpanSet
	ss.Mark(PhaseAdmission, 0)
	ss.Annotate(1, 2)
	if ss.Spans() != nil || ss.SumNS() != 0 || ss.Dropped() != 0 {
		t.Fatal("nil SpanSet is not inert")
	}
	if !ss.Epoch().IsZero() {
		t.Fatal("nil SpanSet epoch not zero")
	}
}

// TestSpanSetAnnotate attaches trace cross-links to the last closed span.
func TestSpanSetAnnotate(t *testing.T) {
	ss := NewSpanSet(time.Now(), 1)
	ss.Mark(PhaseRep, 0)
	ss.Annotate(42, 1000)
	s := ss.Spans()[0]
	if s.TraceEvents != 42 || s.BlockedNS != 1000 {
		t.Fatalf("annotate: got events=%d blocked=%d", s.TraceEvents, s.BlockedNS)
	}
}

// TestMarkZeroAlloc pins the //sync4:zeroalloc claim dynamically; the
// allocgate module test probes the same path via its registry.
func TestMarkZeroAlloc(t *testing.T) {
	ss := NewSpanSet(time.Now(), 0)
	// Capacity exhausted after NumPhases marks; both the append path and
	// the drop path must stay allocation-free.
	if avg := testing.AllocsPerRun(100, func() { ss.Mark(PhaseQueue, 0) }); avg != 0 {
		t.Fatalf("Mark allocates %.1f per op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { ss.Annotate(1, 2) }); avg != 0 {
		t.Fatalf("Annotate allocates %.1f per op", avg)
	}
	r := NewRegistry()
	if avg := testing.AllocsPerRun(100, func() { r.Observe(PhaseRep, 123) }); avg != 0 {
		t.Fatalf("Observe allocates %.1f per op", avg)
	}
}

// TestSpanJSONRoundTrip: the wire form uses phase names and survives a
// marshal/unmarshal round trip.
func TestSpanJSONRoundTrip(t *testing.T) {
	in := []Span{
		{Phase: PhaseAdmission, Rep: -1, Start: 0, End: 10},
		{Phase: PhaseRep, Rep: 2, Start: 10, End: 400, TraceEvents: 7, BlockedNS: 55},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"phase":"rep"`) || !strings.Contains(string(data), `"rep":2`) {
		t.Fatalf("wire form lacks phase name or rep index: %s", data)
	}
	var out []Span
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	var bad Span
	if err := json.Unmarshal([]byte(`{"phase":"nope","start_ns":0,"end_ns":1}`), &bad); err == nil {
		t.Fatal("unknown phase name unmarshaled without error")
	}
}

// TestChainDefect measures gaps and overlaps on hand-built chains.
func TestChainDefect(t *testing.T) {
	gap, overlap := ChainDefect([]Span{{Start: 0, End: 10}, {Start: 15, End: 20}, {Start: 18, End: 30}})
	if gap != 5 || overlap != 2 {
		t.Fatalf("gap=%d overlap=%d, want 5/2", gap, overlap)
	}
}

// TestChainPhases rejects incomplete and out-of-order chains.
func TestChainPhases(t *testing.T) {
	full := []Span{
		{Phase: PhaseAdmission}, {Phase: PhaseDedup}, {Phase: PhaseQueue},
		{Phase: PhaseRep}, {Phase: PhaseJournal}, {Phase: PhasePublish},
	}
	if err := ChainPhases(full); err != nil {
		t.Fatalf("complete chain rejected: %v", err)
	}
	if err := ChainPhases(full[1:]); err == nil {
		t.Fatal("chain missing admission accepted")
	}
	swapped := append([]Span{}, full...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := ChainPhases(swapped); err == nil {
		t.Fatal("out-of-order chain accepted")
	}
}

// TestRegistry aggregates phase durations into per-phase histograms.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.ObserveSpans([]Span{
		{Phase: PhaseQueue, Start: 0, End: 100},
		{Phase: PhaseQueue, Start: 100, End: 300},
		{Phase: PhaseRep, Start: 300, End: 1000},
	})
	if n := r.Snapshot(PhaseQueue).N(); n != 2 {
		t.Fatalf("queue histogram n=%d, want 2", n)
	}
	if n := r.Snapshot(PhaseRep).N(); n != 1 {
		t.Fatalf("rep histogram n=%d, want 1", n)
	}
	if n := r.Snapshot(PhaseJournal).N(); n != 0 {
		t.Fatalf("journal histogram n=%d, want 0", n)
	}
}

// TestAccessLogLines pins the exact bytes of both entry kinds: an http
// line without and with peer, a stolen job's line with node and ran_on,
// and a job whose empty chain still renders as "spans":[]. Timestamps are
// written in UTC whatever zone the entry carries, and <>& are not escaped.
func TestAccessLogLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	ts := time.Date(2026, 8, 8, 12, 0, 0, 123456789, time.UTC)
	l.HTTP(HTTPEntry{Time: ts, RequestID: "req-<1>&", Method: "POST", Path: "/runs",
		Status: 202, DurNS: 12345, Bytes: 99})
	l.HTTP(HTTPEntry{Time: time.Date(2026, 8, 8, 14, 0, 0, 5000, time.FixedZone("", 7200)),
		RequestID: "q-1a2b3c4d-7", Method: "GET", Path: "/runs/r-b-1", Peer: "b",
		Status: 200, DurNS: 1, Bytes: 2})
	l.Job(JobEntry{Time: ts, RequestID: "req-2", JobID: "r-a-3", Workload: "fft",
		Kit: "classic", Node: "a", RanOn: "b", Status: "done", WallNS: 5000,
		Spans: []Span{{Phase: PhaseAdmission, Rep: -1, Start: 0, End: 10},
			{Phase: PhaseRep, Rep: 0, Start: 10, End: 5000, TraceEvents: 3, BlockedNS: 7}}})
	l.Job(JobEntry{Time: ts, RequestID: "req-3", JobID: "r-4", Workload: "radix",
		Kit: "lockfree", Status: "error"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"kind":"http","ts":"2026-08-08T12:00:00.123456789Z","request_id":"req-<1>&","method":"POST","path":"/runs","status":202,"dur_ns":12345,"bytes":99}`,
		`{"kind":"http","ts":"2026-08-08T12:00:00.000005Z","request_id":"q-1a2b3c4d-7","method":"GET","path":"/runs/r-b-1","peer":"b","status":200,"dur_ns":1,"bytes":2}`,
		`{"kind":"job","ts":"2026-08-08T12:00:00.123456789Z","request_id":"req-2","job_id":"r-a-3","workload":"fft","kit":"classic","node":"a","ran_on":"b","status":"done","wall_ns":5000,"spans":[{"phase":"admission","start_ns":0,"end_ns":10},{"phase":"rep","rep":0,"start_ns":10,"end_ns":5000,"trace_events":3,"blocked_ns":7}]}`,
		`{"kind":"job","ts":"2026-08-08T12:00:00.123456789Z","request_id":"req-3","job_id":"r-4","workload":"radix","kit":"lockfree","status":"error","wall_ns":0,"spans":[]}`,
	}
	if got := buf.String(); got != strings.Join(want, "\n")+"\n" {
		t.Fatalf("access log bytes:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if n, err := l.Err(); n != 0 || err != nil {
		t.Fatalf("unexpected write errors: %d %v", n, err)
	}
}

// TestAccessLogJobNodeFields: clustered job lines name the owning node
// and, for stolen jobs, the executing node; single-node lines carry
// neither key, so pre-cluster log consumers see byte-identical output.
func TestAccessLogJobNodeFields(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	ts := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	l.Job(JobEntry{Time: ts, JobID: "r-1", Workload: "fft", Kit: "classic", Status: "done"})
	l.Job(JobEntry{Time: ts, JobID: "r-a-2", Workload: "fft", Kit: "classic",
		Node: "a", Status: "done"})
	l.Job(JobEntry{Time: ts, JobID: "r-a-3", Workload: "fft", Kit: "classic",
		Node: "a", RanOn: "b", Status: "done"})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	views := make([]map[string]any, 3)
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &views[i]); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
	}
	for _, k := range []string{"node", "ran_on"} {
		if _, present := views[0][k]; present {
			t.Errorf("single-node job line grew a %q key: %s", k, lines[0])
		}
	}
	if views[1]["node"] != "a" {
		t.Errorf("owned job line node = %v, want a", views[1]["node"])
	}
	if _, present := views[1]["ran_on"]; present {
		t.Errorf("locally-run job line has ran_on: %s", lines[1])
	}
	if views[2]["node"] != "a" || views[2]["ran_on"] != "b" {
		t.Errorf("stolen job line names %v/%v, want a/b", views[2]["node"], views[2]["ran_on"])
	}
}

// TestAccessLogConcurrent: concurrent writers interleave whole lines.
func TestAccessLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.HTTP(HTTPEntry{Time: time.Now(), RequestID: "r", Method: "GET",
					Path: "/metrics", Status: 200, DurNS: 1, Bytes: 2})
			}
		}()
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d torn: %v\n%s", i, err, line)
		}
	}
}

// TestOpenAccessLog appends across reopen.
func TestOpenAccessLog(t *testing.T) {
	path := t.TempDir() + "/access.jsonl"
	for i := 0; i < 2; i++ {
		l, err := OpenAccessLog(path)
		if err != nil {
			t.Fatal(err)
		}
		l.HTTP(HTTPEntry{Time: time.Now(), RequestID: "x", Method: "GET", Path: "/healthz", Status: 200})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 2 {
		t.Fatalf("reopened log has %d lines, want 2", got)
	}
}

// Package telemetry is the request-level observability spine of splash4d:
// per-job lifecycle spans, per-phase latency aggregation, and a structured
// JSONL access log keyed by propagated request IDs.
//
// The span model is deliberately minimal. A job's life is a chain of
// *contiguous* phases — admission, dedup resolution, queue wait, one span
// per measured repetition, journal append, publish — and a SpanSet records
// that chain by marking phase *boundaries*: each Mark closes the currently
// open phase at "now" and the next phase begins exactly there. Because
// spans are defined by shared boundaries, the chain tiles the job's wall
// time with zero gaps and zero overlaps by construction; the e2e tests in
// internal/server pin that the tiling covers >= 99% of the observed wall
// time. Mark is a wide-event write on the job hot path and performs no
// allocation (//sync4:zeroalloc, enforced by splash4-vet and the allocgate
// probes).
//
// Spans cross-link to the synchronization trace (internal/trace): a
// repetition span carries the trace-event count and cumulative blocked
// time of its capture, so a slow rep can be drilled into its barrier/lock
// episodes with cmd/splash4-trace. docs/OBSERVABILITY.md ("Request-level
// telemetry") documents the model and the access-log schema.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Phase identifies one segment of a job's lifecycle.
type Phase uint8

// Lifecycle phases, in chain order.
const (
	// PhaseAdmission covers request arrival through spec validation and
	// job construction.
	PhaseAdmission Phase = iota
	// PhaseDedup covers singleflight resolution; it closes before the
	// admission-ring enqueue publishes the job to the workers.
	PhaseDedup
	// PhaseQueue covers the ring enqueue and the wait in the admission
	// ring until a worker picks the job up.
	PhaseQueue
	// PhaseRep covers one harness repetition (the first also absorbs kit
	// and scale resolution plus warmup).
	PhaseRep
	// PhaseJournal covers result-record construction and the durable
	// journal append (including retries).
	PhaseJournal
	// PhasePublish covers terminal-state publication: state store,
	// singleflight release, and the final SSE event.
	PhasePublish
	numPhases
)

// NumPhases is the number of distinct phases.
const NumPhases = int(numPhases)

// String returns the phase's wire name, as used in JSON and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseAdmission:
		return "admission"
	case PhaseDedup:
		return "dedup"
	case PhaseQueue:
		return "queue"
	case PhaseRep:
		return "rep"
	case PhaseJournal:
		return "journal"
	case PhasePublish:
		return "publish"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Span is one closed phase interval. Start and End are nanosecond offsets
// from the owning SpanSet's epoch (the request's arrival instant), so a
// chain is valid iff each span's Start equals its predecessor's End.
type Span struct {
	Phase Phase
	// Rep is the repetition index for PhaseRep spans, -1 otherwise.
	Rep   int
	Start int64
	End   int64
	// TraceEvents and BlockedNS cross-link a repetition span to its
	// synchronization trace capture: the number of recorded sync events
	// and the cumulative blocked time across lanes. Zero for non-rep
	// phases and untraced runs.
	TraceEvents int64
	BlockedNS   int64
}

// DurNS returns the span's length in nanoseconds.
func (s Span) DurNS() int64 { return s.End - s.Start }

// spanJSON mirrors Span for encoding with the phase as its wire name.
type spanJSON struct {
	Phase       string `json:"phase"`
	Rep         *int   `json:"rep,omitempty"`
	StartNS     int64  `json:"start_ns"`
	EndNS       int64  `json:"end_ns"`
	TraceEvents int64  `json:"trace_events,omitempty"`
	BlockedNS   int64  `json:"blocked_ns,omitempty"`
}

// MarshalJSON encodes the span with its phase name, e.g.
// {"phase":"rep","rep":2,"start_ns":10,"end_ns":20}.
func (s Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{Phase: s.Phase.String(), StartNS: s.Start, EndNS: s.End,
		TraceEvents: s.TraceEvents, BlockedNS: s.BlockedNS}
	if s.Phase == PhaseRep {
		rep := s.Rep
		j.Rep = &rep
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON.
func (s *Span) UnmarshalJSON(data []byte) error {
	var j spanJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	p, ok := PhaseByName(j.Phase)
	if !ok {
		return fmt.Errorf("telemetry: unknown phase %q", j.Phase)
	}
	s.Phase = p
	s.Rep = -1
	if j.Rep != nil {
		s.Rep = *j.Rep
	}
	s.Start, s.End = j.StartNS, j.EndNS
	s.TraceEvents, s.BlockedNS = j.TraceEvents, j.BlockedNS
	return nil
}

// PhaseByName inverts Phase.String for the lifecycle phases.
func PhaseByName(name string) (Phase, bool) {
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// SpanSet records one job's lifecycle chain. It is created at request
// arrival with capacity for the whole chain; Mark never grows the backing
// array, so recording stays allocation-free on the hot path. A SpanSet
// crosses goroutines (HTTP handler to pipeline worker) and is read by
// status requests mid-flight, so every method takes the internal mutex.
// All methods are nil-safe: a nil SpanSet records nothing, which keeps
// span plumbing optional for callers that construct jobs directly.
type SpanSet struct {
	epoch time.Time

	mu      sync.Mutex
	last    int64 // boundary of the previous Mark, ns since epoch
	spans   []Span
	dropped int
}

// NewSpanSet starts a chain at epoch (the request's arrival instant) with
// room for reps repetition spans plus every fixed phase.
func NewSpanSet(epoch time.Time, reps int) *SpanSet {
	if reps < 0 {
		reps = 0
	}
	return &SpanSet{
		epoch: epoch,
		spans: make([]Span, 0, reps+NumPhases),
	}
}

// Epoch returns the chain's zero instant.
func (ss *SpanSet) Epoch() time.Time {
	if ss == nil {
		return time.Time{}
	}
	return ss.epoch
}

// Mark closes phase p at now: the span runs from the previous boundary
// (the epoch for the first Mark) to the current instant. rep is the
// repetition index for PhaseRep, ignored otherwise. Marks beyond the
// preallocated capacity are counted as dropped rather than grown — the
// chain length is known at admission, so a drop is a programming error
// surfaced by Dropped, not a reason to allocate mid-flight.
//
//sync4:zeroalloc
func (ss *SpanSet) Mark(p Phase, rep int) {
	if ss == nil {
		return
	}
	now := time.Since(ss.epoch).Nanoseconds()
	ss.mu.Lock()
	if len(ss.spans) < cap(ss.spans) {
		if p != PhaseRep {
			rep = -1
		}
		ss.spans = append(ss.spans, Span{Phase: p, Rep: rep, Start: ss.last, End: now})
	} else {
		ss.dropped++
	}
	ss.last = now
	ss.mu.Unlock()
}

// Annotate attaches trace cross-link data to the most recent span (the
// repetition that just ended).
//
//sync4:zeroalloc
func (ss *SpanSet) Annotate(traceEvents, blockedNS int64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	if n := len(ss.spans); n > 0 {
		ss.spans[n-1].TraceEvents = traceEvents
		ss.spans[n-1].BlockedNS = blockedNS
	}
	ss.mu.Unlock()
}

// Spans returns a copy of the closed spans in chain order.
func (ss *SpanSet) Spans() []Span {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]Span, len(ss.spans))
	copy(out, ss.spans)
	return out
}

// Dropped returns how many Marks exceeded the preallocated capacity.
func (ss *SpanSet) Dropped() int {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.dropped
}

// SumNS returns the total nanoseconds covered by the closed spans.
func (ss *SpanSet) SumNS() int64 {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var sum int64
	for _, s := range ss.spans {
		sum += s.DurNS()
	}
	return sum
}

// ChainDefect quantifies how far a span slice is from a perfect tiling:
// gapNS sums the uncovered time between consecutive spans, overlapNS the
// doubly-covered time. A SpanSet-produced chain reports zero for both.
func ChainDefect(spans []Span) (gapNS, overlapNS int64) {
	for i := 1; i < len(spans); i++ {
		d := spans[i].Start - spans[i-1].End
		if d > 0 {
			gapNS += d
		} else {
			overlapNS -= d
		}
	}
	return gapNS, overlapNS
}

// ChainPhases checks that spans form a complete successful chain: every
// phase present (with >= 1 repetition), in non-decreasing lifecycle order.
func ChainPhases(spans []Span) error {
	order := -1
	for i, s := range spans {
		if int(s.Phase) < order {
			return fmt.Errorf("telemetry: span %d (%s) out of order", i, s.Phase)
		}
		order = int(s.Phase)
	}
	seen := [NumPhases]bool{}
	for _, s := range spans {
		if s.Phase < numPhases {
			seen[s.Phase] = true
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if !seen[p] {
			return fmt.Errorf("telemetry: chain is missing phase %q", p)
		}
	}
	return nil
}

// Registry aggregates span durations into one stats.Histogram per phase,
// the source of the splash4d_phase_duration_seconds metric. The fixed
// array of preallocated histograms makes Observe allocation-free.
type Registry struct {
	mu    sync.Mutex
	hists [NumPhases]stats.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.hists {
		r.hists[i] = *stats.NewHistogram()
	}
	return r
}

// Observe folds one phase duration in.
//
//sync4:zeroalloc
func (r *Registry) Observe(p Phase, ns int64) {
	if r == nil || p >= numPhases {
		return
	}
	r.mu.Lock()
	r.hists[p].Add(ns)
	r.mu.Unlock()
}

// ObserveSpans folds every span of a finished chain in.
func (r *Registry) ObserveSpans(spans []Span) {
	for _, s := range spans {
		r.Observe(s.Phase, s.DurNS())
	}
}

// Snapshot returns a copy of one phase's histogram.
func (r *Registry) Snapshot(p Phase) *stats.Histogram {
	h := stats.NewHistogram()
	if r == nil || p >= numPhases {
		return h
	}
	r.mu.Lock()
	cp := r.hists[p]
	r.mu.Unlock()
	h.Merge(&cp)
	return h
}

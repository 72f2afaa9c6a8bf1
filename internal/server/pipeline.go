package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/telemetry"
)

// Spec is one measurement request, as submitted to POST /runs.
type Spec struct {
	Workload string `json:"workload"`
	Kit      string `json:"kit"`
	Threads  int    `json:"threads"`
	Scale    string `json:"scale"`
	Seed     int64  `json:"seed"`
	Reps     int    `json:"reps"`
	Warmup   int    `json:"warmup"`
}

// Key is the singleflight identity: two submissions with equal keys measure
// the same thing, so while one is queued or running the other rides along.
// It is also the rendezvous-hash routing key — internal/cluster hashes it
// to pick the owning node, so identical specs land on (and dedup at) the
// same node regardless of which node the client hit.
func (sp Spec) Key() string {
	return fmt.Sprintf("%s|%s|%d|%s|%d|%d|%d",
		sp.Workload, sp.Kit, sp.Threads, sp.Scale, sp.Seed, sp.Reps, sp.Warmup)
}

// kit resolves the spec's kit name.
func (sp Spec) kit() (sync4.Kit, error) {
	switch sp.Kit {
	case "classic":
		return classic.New(), nil
	case "lockfree":
		return lockfree.New(), nil
	default:
		return nil, fmt.Errorf("unknown kit %q (want classic or lockfree)", sp.Kit)
	}
}

// State is a job's lifecycle position.
type State int32

// Job states, in lifecycle order.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

// String implements fmt.Stringer.
func (st State) String() string {
	switch st {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "error"
	default:
		return fmt.Sprintf("State(%d)", int32(st))
	}
}

// Event is one SSE progress event. Seq orders events within a job; Data is
// event-specific payload. An event lives only as long as it takes emit to
// render its frame: the job keeps the frame, not the Event.
type Event struct {
	Seq  int            `json:"seq"`
	Type string         `json:"type"`
	Data map[string]any `json:"data,omitempty"`
}

// terminal reports whether ev is a job's last event.
func (ev Event) terminal() bool { return ev.Type == "done" || ev.Type == "error" }

// Job is one accepted measurement. Jobs are shared by pointer only: the
// struct embeds atomic state.
//
// A job that has published its terminal event is frozen (freeze): from
// then on it holds its event stream as rendered bytes, its span chain and
// result as pointer-free values, and its scalar fields; no map, channel or
// span set. The jobs a daemon has served then cost the collector little to
// mark.
type Job struct {
	ID        string
	Seq       int64
	Spec      Spec
	Submitted time.Time
	// RequestID is the propagated ID of the submission that created this
	// job; it threads through SSE events, job views, the journal record,
	// and the access log.
	RequestID string
	// spans is the job's lifecycle chain (admission → … → publish),
	// boundary-marked along the pipeline. Nil-safe: jobs built without a
	// chain simply record nothing. Nil once frozen, when finalSpans holds
	// the complete chain.
	spans      *telemetry.SpanSet
	finalSpans []telemetry.Span

	state atomic.Int32

	mu       sync.Mutex
	started  time.Time
	finished time.Time
	errMsg   string
	stall    string // watchdog diagnosis summary, when a repetition stalled
	ranOn    string // executing node, when a peer stole the job
	result   jobResult
	// sse is the job's event stream as served: every emitted event's SSE
	// frame, in seq order. It only grows, so a prefix handed to a
	// subscriber never changes under it.
	sse     []byte
	nEvents int
	ended   bool // a terminal event is in sse
	subs    []chan []byte
}

// jobResult is what a job's repetitions measured, set once they all
// returned: the journal record, the job view and /jobs read it.
type jobResult struct {
	TimesNS     []int64
	MeanNS      int64
	TraceEvents int64
	SyncOps     int64
}

// chain returns the job's span chain: the part closed so far while it is
// live, the complete one once it is frozen. Caller holds j.mu.
func (j *Job) chain() []telemetry.Span {
	if j.spans == nil {
		return j.finalSpans
	}
	return j.spans.Spans()
}

// State returns the job's current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// emit renders a progress event's frame onto the job's stream and fans it
// out to subscribers; a terminal event also closes their channels, which
// ends their streams. Event volume per job is bounded (one per repetition
// plus a constant), so the subscriber channels — sized for that bound —
// never fill; the non-blocking send is belt and braces against a
// misbehaving consumer.
func (j *Job) emit(typ string, data map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{Seq: j.nEvents, Type: typ, Data: data}
	start := len(j.sse)
	sse, err := appendSSE(j.sse, ev)
	if err != nil {
		// Every payload is built in this package from strings, integers
		// and integer slices, which always marshal.
		panic(fmt.Sprintf("server: rendering %s event of %s: %v", typ, j.ID, err))
	}
	j.sse = sse
	j.nEvents++
	frame := sse[start:len(sse):len(sse)]
	for _, ch := range j.subs {
		select {
		case ch <- frame:
		default:
		}
	}
	if ev.terminal() {
		j.ended = true
		for _, ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// subscribe returns the job's stream so far and, unless a terminal event is
// already in it, a channel delivering each later event's frame, closed after
// the terminal one. The stream itself decides, not the job's state:
// finishJob stores the terminal state before it emits the terminal event,
// and emit appends under the same j.mu held here, so a subscriber arriving
// in between still gets a channel and the event. A terminal event anywhere
// in the stream ends it, not only in last place: nothing will ever follow it
// on a channel, so a subscriber handed one would wait forever. cancel must
// be called when the consumer leaves.
//
//sync4:req SYNC4-SERVE-012 v1 MUST A job's event stream is ordered and finite: every event that announces a hand-over (queued, stolen, reclaimed) is emitted before the job becomes visible to whoever acts on it next, so queued is always seq 0 and exactly one terminal event comes last; and a subscriber whose replay already holds a terminal event, at any position, gets no live channel and its stream closes.
func (j *Job) subscribe(chanCap int) (replay []byte, ch chan []byte, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = j.sse[:len(j.sse):len(j.sse)]
	if j.ended {
		return replay, nil, func() {}
	}
	ch = make(chan []byte, chanCap)
	j.subs = append(j.subs, ch)
	return replay, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if i := slices.Index(j.subs, ch); i >= 0 {
			// slices.Delete zeroes the vacated tail slot, so a departed
			// subscriber's channel does not stay reachable from it.
			j.subs = slices.Delete(j.subs, i, i+1)
		}
	}
}

// Submission errors the API layer maps to status codes.
var (
	errDraining = errors.New("server is draining, not accepting new runs")
	errBusy     = errors.New("admission queue is full")
	errDegraded = errors.New("result journal unavailable, serving reads only")
)

// Per-job caps: a job runs at most maxReps measured repetitions (and as
// many warmup ones) on at most maxThreadsPerCPU×GOMAXPROCS threads.
const (
	maxReps          = 32
	maxThreadsPerCPU = 4
)

// validateSpec normalizes sp in place and rejects unusable requests.
func (s *Server) validateSpec(sp *Spec) error {
	if _, err := s.cfg.Resolver(sp.Workload); err != nil {
		return err
	}
	if _, err := sp.kit(); err != nil {
		return err
	}
	if sp.Scale == "" {
		sp.Scale = "test"
	}
	if _, err := core.ParseScale(sp.Scale); err != nil {
		return err
	}
	if sp.Threads <= 0 {
		sp.Threads = 1
	}
	if limit := maxThreadsPerCPU * runtime.GOMAXPROCS(0); sp.Threads > limit {
		return fmt.Errorf("threads %d exceeds the server cap of %d", sp.Threads, limit)
	}
	if sp.Reps <= 0 {
		sp.Reps = 1
	}
	if sp.Reps > maxReps {
		return fmt.Errorf("reps %d exceeds the server cap of %d", sp.Reps, maxReps)
	}
	if sp.Warmup < 0 {
		sp.Warmup = 0
	}
	if sp.Warmup > maxReps {
		return fmt.Errorf("warmup %d exceeds the server cap of %d", sp.Warmup, maxReps)
	}
	return nil
}

// submit admits one validated spec. It returns the job (fresh or, when an
// identical spec is already queued or running, the existing one) and
// whether this call created it. Backpressure and drain are reported as
// errBusy and errDraining. reqID is the submission's propagated request
// ID; ss is the span chain started at request arrival, which the created
// job adopts (both may be zero values for direct callers).
func (s *Server) submit(sp Spec, reqID string, ss *telemetry.SpanSet) (job *Job, created bool, err error) {
	if s.draining.Load() {
		s.rejectedDraining.Inc()
		return nil, false, errDraining
	}
	// Degraded mode: the journal's write path is failing, so accepting a
	// job would promise a durable result the server cannot deliver. Each
	// submission probes for recovery first, so admission resumes by itself
	// once the fault clears.
	if !s.probeRecovery() {
		s.rejectedDegraded.Inc()
		return nil, false, errDegraded
	}
	s.mu.Lock()
	if existing := s.active[sp.Key()]; existing != nil {
		s.mu.Unlock()
		s.deduped.Inc()
		return existing, false, nil
	}
	s.seq++
	j := &Job{
		ID:        s.jobID(s.seq),
		Seq:       s.seq,
		Spec:      sp,
		Submitted: time.Now(),
		RequestID: reqID,
		spans:     ss,
	}
	// The singleflight lookup missed: dedup resolution ends here and the
	// queue-wait phase begins. The mark and the queued event must precede
	// the TryPut that publishes the job, or a fast worker closes the queue
	// span — or emits started, rep and done — first. queue_depth is thus
	// the number of jobs ahead of this one at admission.
	j.spans.Mark(telemetry.PhaseDedup, 0)
	j.emit("queued", map[string]any{
		"id": j.ID, "workload": sp.Workload, "kit": sp.Kit,
		"queue_depth": s.queue.Len(), "request_id": j.RequestID,
	})
	// The lock-free ring is the admission gate: no room means 429, and
	// nothing about this job survives the rejection.
	if !s.queue.TryPut(j.Seq) {
		s.seq--
		s.mu.Unlock()
		s.rejected.Inc()
		return nil, false, errBusy
	}
	s.jobs[j.ID] = j
	s.bySeq[j.Seq] = j
	s.active[sp.Key()] = j
	s.jobsWG.Add(1)
	s.mu.Unlock()

	s.accepted.Inc()
	// Offer a wake token; a full channel already holds enough pending
	// wake-ups to drain the ring past this job (see the wake field's
	// invariant), so dropping the token is safe.
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return j, true, nil
}

// jobByID looks a job up by its public ID.
func (s *Server) jobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// release ends the job's singleflight window: a new identical submission
// after this point runs fresh.
func (s *Server) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[j.Spec.Key()] == j {
		delete(s.active, j.Spec.Key())
	}
}

// worker is one pool goroutine: it sleeps on the wake channel and, per
// token, drains the ring until TryGet misses. Draining fully is what makes
// a dropped wake token harmless. Workers outlive every job — Drain only
// closes stop after the accepted-jobs waitgroup reaches zero.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
			for {
				seq, ok := s.queue.TryGet()
				if !ok {
					break
				}
				s.mu.Lock()
				j := s.bySeq[seq]
				delete(s.bySeq, seq)
				s.mu.Unlock()
				if j != nil {
					s.runJob(j)
				}
			}
		}
	}
}

// runJob executes one accepted job end to end on the local engine:
// repetitions through harness.RunContext with tracing and instrumentation
// on, a progress event per repetition, then a journal line and the latency
// histograms. Every accepted job reaches a terminal state and a journal
// line, even when canceled by a forced drain.
func (s *Server) runJob(j *Job) {
	defer s.jobsWG.Done()
	s.inflight.Inc()
	defer s.inflight.Add(-1)

	j.spans.Mark(telemetry.PhaseQueue, 0)
	sp := j.Spec
	j.state.Store(int32(StateRunning))
	j.mu.Lock()
	j.started = time.Now()
	j.mu.Unlock()
	j.emit("started", map[string]any{"threads": sp.Threads, "scale": sp.Scale, "reps": sp.Reps})

	if err := s.measure(j); err != nil {
		s.finishJob(j, StateFailed, err)
		return
	}
	s.finishJob(j, StateDone, nil)
}

// jobObserver adapts one local job to the execution engine's progress
// callbacks: repetition spans, SSE events, and the stall diagnosis.
type jobObserver struct{ j *Job }

func (o jobObserver) repMarked(rep int) { o.j.spans.Mark(telemetry.PhaseRep, rep) }

func (o jobObserver) repDone(rep int, wall time.Duration, traceEvents, traceDropped, syncOps, blockedNS int64) {
	o.j.spans.Annotate(traceEvents, blockedNS)
	o.j.emit("rep", map[string]any{
		"rep":           rep,
		"wall_ns":       wall.Nanoseconds(),
		"trace_events":  traceEvents,
		"trace_dropped": traceDropped,
		"sync_ops":      syncOps,
	})
}

func (o jobObserver) repStalled(rep int, kind, brief string) {
	o.j.mu.Lock()
	o.j.stall = brief
	o.j.mu.Unlock()
	o.j.emit("stall", map[string]any{
		"rep":       rep,
		"kind":      kind,
		"diagnosis": brief,
	})
}

// measure runs the job's repetitions through the execution engine (see
// exec.go) and captures the result record. Two failure guards are armed:
// the job as a whole runs under Config.JobTimeout, and every repetition
// runs under the harness watchdog (Config.RepTimeout), so a deadlocked or
// livelocked workload fails with a structured diagnosis instead of wedging
// its worker forever.
func (s *Server) measure(j *Job) error {
	sp := j.Spec
	ctx, cancel := context.WithTimeout(s.jobCtx, s.cfg.JobTimeout)
	defer cancel()
	out, err := s.executeSpec(ctx, sp, jobObserver{j: j})
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.result = jobResult{
		TimesNS: durationsNS(out.Sample.Durations()), MeanNS: out.Sample.Mean().Nanoseconds(),
		TraceEvents: out.TraceEvents, SyncOps: out.SyncOps,
	}
	j.mu.Unlock()
	s.observeLatency(sp.Workload, sp.Kit, out.Sample.Durations())
	return nil
}

// decorateTimeout distinguishes "the job blew its execution budget" from
// "the server is shutting down": both surface as context errors from the
// harness, but only the former is the job's own fault.
//
//sync4:req SYNC4-SERVE-011 v1 MUST A job exceeding its execution budget fails with a timeout error naming the budget (and, when the watchdog fires, a structured stall diagnosis) instead of hanging a worker.
func (s *Server) decorateTimeout(err error) error {
	if errors.Is(err, context.DeadlineExceeded) && s.jobCtx.Err() == nil {
		return fmt.Errorf("job exceeded its %v execution timeout: %w", s.cfg.JobTimeout, err)
	}
	return err
}

// Journal append retry policy: transient write failures (a full disk
// being cleared, a hiccuping filesystem) get a few quick retries with
// exponential backoff and jitter before the server declares the write
// path degraded.
const (
	appendAttempts = 3
	appendBackoff  = 5 * time.Millisecond
)

// appendWithRetry persists one journal line, retrying transient failures.
// Success clears degraded mode (the write path evidently works); running
// out of attempts enters it. The returned error is the last attempt's.
func (s *Server) appendWithRetry(rec resultstore.Record) error {
	var err error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if err = s.store.Append(rec); err == nil {
			s.setDegraded(false)
			return nil
		}
		if attempt < appendAttempts-1 {
			s.appendRetries.Inc()
			backoff := appendBackoff << attempt
			time.Sleep(backoff + rand.N(backoff))
		}
	}
	s.setDegraded(true)
	return err
}

// finishJob journals the outcome, publishes the terminal state and event,
// and releases the singleflight window. The journal span closes after the
// durable append, the publish span after the terminal event; then the
// finished chain is folded into the phase histograms and, when the server
// has an access log, written out as the job's "job" line.
func (s *Server) finishJob(j *Job, st State, cause error) {
	now := time.Now()
	j.mu.Lock()
	j.finished = now
	// The journaled record carries the chain as known before the append:
	// admission through the last repetition. The journal and publish
	// spans close after the append by necessity; the job view and the
	// access log carry the complete chain.
	rec := resultstore.Record{
		ID: j.ID, Workload: j.Spec.Workload, Kit: j.Spec.Kit,
		Threads: j.Spec.Threads, Scale: j.Spec.Scale, Seed: j.Spec.Seed,
		Reps: j.Spec.Reps, Node: s.cfg.NodeID,
		Submitted: j.Submitted, Started: j.started, Finished: now,
		TimesNS: j.result.TimesNS, MeanNS: j.result.MeanNS,
		TraceEvents: j.result.TraceEvents, SyncOps: j.result.SyncOps,
		RequestID: j.RequestID, Spans: j.spans.Spans(),
	}
	if cause != nil {
		st = StateFailed
		j.errMsg = cause.Error()
		rec.Status = "error"
		rec.Error = cause.Error()
	} else {
		rec.Status = "ok"
	}
	j.mu.Unlock()

	err := s.appendWithRetry(rec)
	j.spans.Mark(telemetry.PhaseJournal, 0)
	if err != nil && cause == nil {
		// The measurement succeeded but persisting it did not, even after
		// retries: the job fails, because an acknowledged result must be
		// in the journal. appendWithRetry has already flipped the server
		// into degraded (read-only) mode.
		st = StateFailed
		cause = err
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
	}

	j.state.Store(int32(st))
	s.release(j)
	if st == StateDone {
		s.completed.Inc()
		j.emit("done", map[string]any{
			"mean_ns": rec.MeanNS, "reps": rec.Reps, "times_ns": rec.TimesNS,
			"request_id": j.RequestID,
		})
	} else {
		s.failed.Inc()
		j.emit("error", map[string]any{"error": j.Error(), "request_id": j.RequestID})
	}
	j.spans.Mark(telemetry.PhasePublish, 0)
	spans := j.spans.Spans()
	s.publishTelemetry(j, st, now, spans)
	j.freeze(spans)
}

// freeze keeps of a terminal job only what its reads still need: the event
// stream, trimmed to its length, and the complete span chain as a plain
// slice in place of the span set. emit dropped the subscribers with the
// terminal event. GET /runs/{id} renders from these fields on every read,
// as it does while the job is live, so it reads back unchanged.
//
//sync4:req SYNC4-SERVE-013 v1 MUST A terminal job keeps its event stream as rendered bytes and its span chain and result without pointers into live state, and GET /runs/{id}/events and GET /runs/{id} read back byte for byte as the job served them while it was live, a deduped twin's view included.
func (j *Job) freeze(spans []telemetry.Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sse = bytes.Clone(j.sse)
	j.finalSpans, j.spans = spans, nil
}

// publishTelemetry folds a terminal job's span chain into the per-phase
// histograms and appends the job's access-log line.
func (s *Server) publishTelemetry(j *Job, st State, finished time.Time, spans []telemetry.Span) {
	if spans == nil {
		return
	}
	s.phases.ObserveSpans(spans)
	j.mu.Lock()
	ranOn := j.ranOn
	j.mu.Unlock()
	s.accessLog.Job(telemetry.JobEntry{
		Time:      finished,
		RequestID: j.RequestID,
		JobID:     j.ID,
		Workload:  j.Spec.Workload,
		Kit:       j.Spec.Kit,
		Node:      s.cfg.NodeID,
		RanOn:     ranOn,
		Status:    st.String(),
		WallNS:    finished.Sub(j.Submitted).Nanoseconds(),
		Spans:     spans,
	})
}

// Error returns the job's failure message, or "".
func (j *Job) Error() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

func durationsNS(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = d.Nanoseconds()
	}
	return out
}

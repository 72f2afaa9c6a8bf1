package server

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The execution engine: the transport-agnostic half of the pipeline.
//
// A scheduler "worker" in this design is anything that obtains a validated
// Spec and feeds it to executeSpec — the local pool goroutines draining the
// lock-free admission ring, or a cluster peer executing a stolen job on the
// owner's behalf (internal/cluster's stealer calls ExecuteSpec over HTTP).
// The engine owns everything transport-independent: kit and scale
// resolution, the trace recorder, the repetition loop with both failure
// guards (job budget + per-rep watchdog), and the measured sample. Job
// bookkeeping — SSE events, lifecycle spans, the journal — stays with the
// node that owns the job, wired in through the execObserver callbacks.

// execObserver receives per-repetition progress from the engine. The local
// path implements it on *Job (events + lifecycle spans); remote execution
// uses a silent observer and ships the outcome back to the owning node.
type execObserver interface {
	// repMarked closes the repetition's lifecycle span (success or not).
	repMarked(rep int)
	// repDone reports one successful repetition.
	repDone(rep int, wall time.Duration, traceEvents, traceDropped, syncOps int64, blockedNS int64)
	// repStalled reports a watchdog-diagnosed stall.
	repStalled(rep int, kind, brief string)
}

// noopObserver is the remote path's observer: the thief has no local job.
type noopObserver struct{}

func (noopObserver) repMarked(int)                                          {}
func (noopObserver) repDone(int, time.Duration, int64, int64, int64, int64) {}
func (noopObserver) repStalled(int, string, string)                         {}

// execOutcome is what the engine measured.
type execOutcome struct {
	Sample      *stats.Sample
	TraceEvents int64
	SyncOps     int64
	// StallKind and StallBrief carry the watchdog diagnosis of a stalled
	// repetition, empty otherwise.
	StallKind  string
	StallBrief string
}

// executeSpec runs one validated spec's repetitions under the job budget.
// ctx should already carry the job timeout; the per-rep watchdog is armed
// from the server config. The observer is called once per repetition.
func (s *Server) executeSpec(ctx context.Context, sp Spec, obs execObserver) (execOutcome, error) {
	out := execOutcome{Sample: &stats.Sample{}}
	if obs == nil {
		obs = noopObserver{}
	}
	bench, err := s.cfg.Resolver(sp.Workload)
	if err != nil {
		return out, err
	}
	kit, err := sp.kit()
	if err != nil {
		return out, err
	}
	sc, err := core.ParseScale(sp.Scale)
	if err != nil {
		return out, err
	}
	// The recorder returns to the pool only past the loop: every early
	// return below may leave abandoned workers still recording into it.
	rec := s.recorders.get(2*sp.Threads + 2)
	for rep := 0; rep < sp.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return out, s.decorateTimeout(err)
		}
		opt := harness.Options{
			Reps: 1, Verify: true, Instrument: true, Trace: rec,
			RepTimeout: s.cfg.RepTimeout,
		}
		if rep == 0 {
			opt.Warmup = sp.Warmup
		}
		res, err := harness.RunContext(ctx, bench, core.Config{
			Threads: sp.Threads, Kit: kit, Scale: sc, Seed: sp.Seed,
		}, opt)
		// The repetition span closes whether the rep succeeded or not, so
		// the chain stays contiguous into the journal phase.
		obs.repMarked(rep)
		if err != nil {
			if res.Stall != nil {
				out.StallKind = string(res.Stall.Kind)
				out.StallBrief = res.Stall.Brief()
				obs.repStalled(rep, out.StallKind, out.StallBrief)
			}
			return out, s.decorateTimeout(err)
		}
		d := res.Times.Mean()
		out.Sample.Add(d)
		out.TraceEvents = int64(res.Trace.Events())
		out.SyncOps = res.Sync.Total()
		obs.repDone(rep, d, out.TraceEvents, int64(res.Trace.TotalDropped()),
			out.SyncOps, trace.Blocked(res.Trace).Total.Sum())
	}
	s.recorders.put(rec)
	return out, nil
}

// RemoteResult is the wire-level outcome of executing a spec on behalf of a
// peer: everything the owning node needs to journal the job as its own.
// Timestamps are the executor's clocks and are informational; the owner
// keeps its own submitted/started/finished times for the journal record.
type RemoteResult struct {
	Status      string  `json:"status"` // "ok" or "error"
	Error       string  `json:"error,omitempty"`
	TimesNS     []int64 `json:"times_ns,omitempty"`
	MeanNS      int64   `json:"mean_ns,omitempty"`
	TraceEvents int64   `json:"trace_events,omitempty"`
	SyncOps     int64   `json:"sync_ops,omitempty"`
	Stall       string  `json:"stall,omitempty"`
	WallNS      int64   `json:"wall_ns,omitempty"`
}

// ExecuteSpec runs sp on this node's engine without creating a local job:
// the work-stealing entry point. The spec is re-validated (and normalized)
// locally — a peer's caps may differ — and runs under this node's job
// budget and watchdog. The error, if any, is folded into the result's
// Status/Error fields so the outcome always ships whole.
func (s *Server) ExecuteSpec(ctx context.Context, sp Spec) RemoteResult {
	start := time.Now()
	if err := s.validateSpec(&sp); err != nil {
		return RemoteResult{Status: "error", Error: err.Error()}
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
	defer cancel()
	out, err := s.executeSpec(ctx, sp, nil)
	res := RemoteResult{
		Status:      "ok",
		TimesNS:     durationsNS(out.Sample.Durations()),
		MeanNS:      out.Sample.Mean().Nanoseconds(),
		TraceEvents: out.TraceEvents,
		SyncOps:     out.SyncOps,
		Stall:       out.StallBrief,
		WallNS:      time.Since(start).Nanoseconds(),
	}
	if err != nil {
		res.Status = "error"
		res.Error = err.Error()
	}
	return res
}

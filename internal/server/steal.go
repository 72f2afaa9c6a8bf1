package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// The victim side of cluster work stealing.
//
// A peer with idle workers asks this node to donate queued jobs
// (POST /peer/steal, served by internal/cluster). Donate pops sequence
// numbers off the same lock-free admission ring the local workers drain —
// stealing and local pickup contend through identical TryGet operations, so
// a donated job is removed exactly once — and parks each job in the stolen
// map. The thief executes the spec through its own engine (ExecuteSpec) and
// ships the outcome back (POST /peer/complete → CompleteStolen); the victim
// journals the record itself, so every accepted job has exactly one journal
// line, on its owning node, whether it ran locally or remotely.
//
// If the thief dies mid-flight the outcome never arrives; ReclaimStolen
// takes jobs back onto the local ring after a deadline. The stolen map is
// the arbiter of the complete-vs-reclaim race: both paths remove the entry
// under s.mu, and whoever wins owns the job's remaining lifecycle — the
// loser's call reports ErrNotStolen and changes nothing.

// ErrNotStolen reports a completion (or reclaim) for a job this node is not
// currently waiting on: already completed, already reclaimed, or never
// donated.
var ErrNotStolen = errors.New("job is not out on loan to a peer")

// stolenEntry tracks one donated job while its outcome is owed.
type stolenEntry struct {
	job   *Job
	thief string    // stealing node's ID
	since time.Time // donation instant, for reclaim deadlines
}

// StolenJob is the wire form of one donated job: everything the thief
// needs to execute it and address the completion callback.
type StolenJob struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

// Donate hands up to max queued jobs to the named thief. It refuses while
// draining (those jobs are about to finish locally) and while degraded
// (admission is refusing anyway; keep the pipeline quiet). Jobs come off
// the admission ring through the same lock-free TryGet the worker pool
// uses, so a job is either donated or locally executed, never both.
func (s *Server) Donate(max int, thief string) []StolenJob {
	if max <= 0 || thief == "" || s.draining.Load() || s.degraded.Load() {
		return nil
	}
	var donated []StolenJob
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(donated) < max {
		seq, ok := s.queue.TryGet()
		if !ok {
			break
		}
		j := s.bySeq[seq]
		delete(s.bySeq, seq)
		if j == nil {
			continue
		}
		// State and the stolen event come before the stolen-map entry, all
		// under s.mu: a completion or reclaim can only find the entry once
		// the lock drops, so whatever it emits follows. (s.mu then j.mu
		// nests safely: nothing takes them in the other order.)
		j.spans.Mark(telemetry.PhaseQueue, 0)
		j.state.Store(int32(StateRunning))
		j.mu.Lock()
		j.started = now
		j.ranOn = thief
		j.mu.Unlock()
		s.donated.Inc()
		j.emit("stolen", map[string]any{
			"node": thief, "threads": j.Spec.Threads,
			"scale": j.Spec.Scale, "reps": j.Spec.Reps,
		})
		s.stolen[j.ID] = &stolenEntry{job: j, thief: thief, since: now}
		donated = append(donated, StolenJob{ID: j.ID, Spec: j.Spec})
	}
	return donated
}

// CompleteStolen lands a thief's outcome for one donated job: the record is
// built from the remote measurement and journaled here, on the owning node,
// exactly as if the job had run locally. A completion for a job that was
// already reclaimed (or never stolen) returns ErrNotStolen and journals
// nothing — the reclaim path owns the job now.
//
//sync4:req SYNC4-CLUS-002 v2 MUST The stolen map arbitrates the complete-vs-reclaim race under one lock: a donated job's outcome is journaled exactly once on its owning node, and a completion arriving after the job was reclaimed is refused (ErrNotStolen, surfaced as 410 Gone) and journals nothing.
func (s *Server) CompleteStolen(id string, res RemoteResult) error {
	s.mu.Lock()
	e := s.stolen[id]
	delete(s.stolen, id)
	s.mu.Unlock()
	if e == nil {
		return fmt.Errorf("completing %q: %w", id, ErrNotStolen)
	}
	j := e.job
	defer s.jobsWG.Done()
	// One repetition span stands in for the remotely-executed loop: the
	// chain stays contiguous (queue → rep → journal) even though the wall
	// time lived on the thief.
	j.spans.Mark(telemetry.PhaseRep, 0)
	if res.Status != "ok" {
		if res.Stall != "" {
			j.mu.Lock()
			j.stall = res.Stall
			j.mu.Unlock()
		}
		s.finishJob(j, StateFailed, fmt.Errorf("peer %s: %s", e.thief, res.Error))
		return nil
	}
	sp := j.Spec
	j.mu.Lock()
	j.result = jobResult{
		TimesNS: res.TimesNS, MeanNS: res.MeanNS,
		TraceEvents: res.TraceEvents, SyncOps: res.SyncOps,
	}
	j.mu.Unlock()
	s.observeLatency(sp.Workload, sp.Kit, nsToDurations(res.TimesNS))
	s.finishJob(j, StateDone, nil)
	return nil
}

// ReclaimStolen takes back every donated job whose outcome has been owed
// longer than olderThan, re-inserting it at the back of the admission ring
// so a local worker runs it. Returns how many jobs were reclaimed. A ring
// with no room (possible: admission kept running while the job was out)
// leaves the job in the stolen map for the next sweep — it is never lost.
func (s *Server) ReclaimStolen(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	return s.reclaim(func(e *stolenEntry) bool { return !e.since.After(cutoff) })
}

// ReclaimStolenFrom takes back every job donated to one thief regardless
// of age — the cluster calls it the moment a peer's health probe flips to
// down, so a dead thief's jobs re-queue without waiting out the deadline.
func (s *Server) ReclaimStolenFrom(thief string) int {
	return s.reclaim(func(e *stolenEntry) bool { return e.thief == thief })
}

// reclaim puts every donated job that match selects back on the admission
// ring. The whole hand-over happens under s.mu: a worker may pop the seq
// the instant TryPut lands, but it needs s.mu to resolve it through bySeq,
// so the reclaimed event and the state change always precede its started.
func (s *Server) reclaim(match func(*stolenEntry) bool) int {
	var took int
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, e := range s.stolen {
		if !match(e) {
			continue
		}
		j := e.job
		ahead := s.queue.Len()
		s.bySeq[j.Seq] = j
		if !s.queue.TryPut(j.Seq) {
			delete(s.bySeq, j.Seq)
			continue // ring full; retry on the next sweep
		}
		delete(s.stolen, id)
		took++
		s.reclaimed.Inc()
		j.state.Store(int32(StateQueued))
		// The job will run locally after all; it no longer "ran on" the
		// thief, whose measurement (if any ever arrives) is refused.
		j.mu.Lock()
		j.ranOn = ""
		j.mu.Unlock()
		j.emit("reclaimed", map[string]any{"queue_depth": ahead})
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return took
}

// failStolen fails every outstanding donated job with cause: the forced
// drain path, where waiting on a silent thief would hold shutdown forever.
func (s *Server) failStolen(cause error) {
	s.mu.Lock()
	var took []*Job
	for id, e := range s.stolen {
		delete(s.stolen, id)
		took = append(took, e.job)
	}
	s.mu.Unlock()
	for _, j := range took {
		s.finishJob(j, StateFailed, cause)
		s.jobsWG.Done()
	}
}

// AwaitingStolen reports whether this node still awaits a stolen
// completion for id — the read half of the thief's completion re-probe:
// a thief whose POST /peer/complete failed in transit asks before
// resending, so a completion that landed (or a job that was reclaimed)
// is never double-delivered.
func (s *Server) AwaitingStolen(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stolen[id] != nil
}

// StolenCount reports how many donated jobs are currently out on loan.
func (s *Server) StolenCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stolen)
}

func nsToDurations(ns []int64) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, v := range ns {
		out[i] = time.Duration(v)
	}
	return out
}

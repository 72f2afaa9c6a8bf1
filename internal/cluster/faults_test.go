package cluster

import (
	"testing"
	"time"

	"repro/internal/cluster/netfaulty"
	"repro/internal/cluster/peernet"
	"repro/internal/server"
)

// wedgeVictim configures node "a" as the canonical stealing victim: one
// worker wedged behind a's gate so the second submission queues and is the
// only stealable job, with a's own stealer off. Node "b" (the thief) runs
// its stolen work behind b's gate so tests control exactly when the
// completion POST happens, under a netfaulty transport — every fault in
// these tests is a directed rule, so the schedule is exact.
func wedgeVictim(t *testing.T) (nodes map[string]*testNode, bFaults *netfaulty.Transport) {
	t.Helper()
	nodes = startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		switch id {
		case "a":
			scfg.Workers = 1
			ccfg.StealInterval = time.Hour // a never steals; b is the only thief
		case "b":
			bFaults = netfaulty.New(peernet.NewHTTPTransport(ccfg.HTTPTimeout))
			ccfg.Transport = bFaults
			ccfg.RetryBaseDelay = time.Millisecond // keep budgeted retries fast
		}
	})
	nodes["a"].gate.arm()
	nodes["b"].gate.arm()
	return nodes, bFaults
}

// stealOneJob submits two pinned jobs to a (the first wedges a's worker,
// the second queues) and waits until b has stolen the queued one.
func stealOneJob(t *testing.T, nodes map[string]*testNode) []string {
	t.Helper()
	a := nodes["a"]
	ids := []string{
		submitTo(t, a.base, specBody("fft", "lockfree", 1), true),
		submitTo(t, a.base, specBody("fft", "lockfree", 2), true),
	}
	waitFor(t, "b never stole a's queued job", func() bool { return a.srv.StolenCount() > 0 })
	return ids
}

// finishAll releases a's wedged worker and asserts every job reaches done
// with exactly one journal record on a, none of them delivered by b.
func finishAll(t *testing.T, nodes map[string]*testNode, ids []string) {
	t.Helper()
	a := nodes["a"]
	for _, id := range ids {
		if v := jobView(t, a.base, id); v["status"] != "done" {
			t.Fatalf("job %s finished %v, want done", id, v["status"])
		}
	}
	counts := map[string]int{}
	for _, rec := range a.srv.Store().All() {
		counts[rec.ID]++
	}
	for _, id := range ids {
		if counts[id] != 1 {
			t.Fatalf("journal holds %d records for %s, want exactly 1", counts[id], id)
		}
	}
	if got := a.srv.StolenCount(); got != 0 {
		t.Fatalf("%d jobs still out on loan after all completed", got)
	}
}

// TestLateCompletionAfterReclaimIsDiscarded reclaims a stolen job while the
// thief is still executing it, then lets the thief's completion arrive
// late: the victim must refuse it (410 Gone), the thief must discard its
// measurement, and the job must finish locally with exactly one journal
// record.
//
//sync4:covers SYNC4-CLUS-002
func TestLateCompletionAfterReclaimIsDiscarded(t *testing.T) {
	nodes, _ := wedgeVictim(t)
	a, b := nodes["a"], nodes["b"]
	ids := stealOneJob(t, nodes)

	// Reclaim while b is wedged mid-execution: the stolen map entry goes
	// away and the job re-queues locally, behind a's wedged worker.
	if n := a.srv.ReclaimStolen(0); n != 1 {
		t.Fatalf("reclaimed %d jobs, want 1", n)
	}
	// Now the thief finishes and completes into a 410: its measurement is
	// discarded without touching a's journal.
	b.gate.release()
	deadline := time.Now().Add(10 * time.Second)
	for b.cl.stolenTotal.Load() == 0 && a.srv.StolenCount() == 0 && b.srv.Inflight() > 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.gate.release()
	finishAll(t, nodes, ids)
	if got := b.cl.stolenTotal.Load(); got != 0 {
		t.Fatalf("thief counted %d completed steals after a 410 discard, want 0", got)
	}
}

// TestFailedCompletionReprobesBeforeResend partitions the completion
// endpoint (and only it) so the thief's POST fails in transit while the
// victim still awaits the outcome: the thief must re-probe GET
// /peer/stolen, learn the victim is still waiting, and resend exactly once
// under the retry budget — never blind. With the partition still up the
// resend fails too, and the job must come home through reclaim, losing
// nothing.
//
//sync4:covers SYNC4-CLUS-005
func TestFailedCompletionReprobesBeforeResend(t *testing.T) {
	nodes, bFaults := wedgeVictim(t)
	a, b := nodes["a"], nodes["b"]
	ids := stealOneJob(t, nodes)

	// Drop only b→a completions: the re-probe read and everything else
	// still flow, which is exactly the lost-response shape.
	bFaults.Partition("a", peernet.EndpointComplete)
	b.gate.release()

	// The resend is observable as one retry on the complete endpoint; it
	// only happens after the re-probe answered "still awaiting".
	epComplete := endpointIndex(peernet.EndpointComplete)
	waitFor(t, "thief never resent the completion", func() bool { return b.cl.retries[epComplete].v.Load() > 0 })
	if got := b.cl.retries[epComplete].v.Load(); got != 1 {
		t.Fatalf("thief resent the completion %d times, want exactly 1", got)
	}
	if got := b.cl.stolenTotal.Load(); got != 0 {
		t.Fatalf("thief counted %d completed steals through a partition, want 0", got)
	}

	// Both attempts failed; the job is still out on loan and comes home
	// through reclaim, then finishes locally.
	if got := a.srv.StolenCount(); got != 1 {
		t.Fatalf("%d jobs out on loan after the failed completion, want 1", got)
	}
	if n := a.srv.ReclaimStolen(0); n != 1 {
		t.Fatalf("reclaimed %d jobs, want 1", n)
	}
	bFaults.Heal("a")
	a.gate.release()
	finishAll(t, nodes, ids)

	// The partition injections are counted on the decision log.
	rep := bFaults.Report()
	if rep.Injected[netfaulty.FaultPartition] < 2 {
		t.Fatalf("decision log counts %d partition drops, want both completion attempts", rep.Injected[netfaulty.FaultPartition])
	}
}

// TestReclaimRacesCompletionLosesOnce drives the same wedge without any
// fault injection and reclaims after the completion landed: the reclaim
// must then find nothing to take — the stolen map arbitration is
// first-writer-wins in both directions.
func TestReclaimRacesCompletionLosesOnce(t *testing.T) {
	nodes, _ := wedgeVictim(t)
	a, b := nodes["a"], nodes["b"]
	ids := stealOneJob(t, nodes)

	b.gate.release()
	waitFor(t, "thief never completed the stolen job", func() bool { return b.cl.stolenTotal.Load() > 0 })
	// The completion landed: a late reclaim sweep must take nothing.
	if n := a.srv.ReclaimStolen(0); n != 0 {
		t.Fatalf("reclaim took %d jobs after their completion landed, want 0", n)
	}
	a.gate.release()
	finishAll(t, nodes, ids)
	if got := b.cl.stolenTotal.Load(); got != 1 {
		t.Fatalf("thief counted %d completed steals, want 1", got)
	}
}

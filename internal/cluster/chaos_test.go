package cluster

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/netfaulty"
	"repro/internal/cluster/peernet"
	"repro/internal/server"
)

// TestRunChaosFullSchedule is the partition-tolerance gate. It boots the
// 3-node fixture with every peer exchange behind a netfaulty transport
// and drives the machinery through its designed failure modes in order,
// each a directed rule installed and healed at a phase boundary:
//
//	A. Baseline: routed submissions complete, journals replicate, and
//	   /compare answers byte-identically from all three nodes.
//	B. Asymmetric partition during stealing: node c steals node a's
//	   backlog while every c→a data exchange is dropped and a→c still
//	   flows. c's completions die in transit, a's reclaim deadline takes
//	   the jobs home, c's breaker for a opens, and after the heal it walks
//	   back to closed through a half-open trial. No job is lost.
//	C. Latency storm on the journal tail: every fetch b makes of a's
//	   journal is held 160 ms, and b's replica of a must still reach a's
//	   record set and ship lag 0 while the hold is installed.
//	D. Origin crash-restart mid-tail: a is killed, its journal loses its
//	   last record, and it restarts in place under a new journal
//	   generation. The followers' ship loops see the generation change on
//	   their next fetch, drop their replicas and drain them again from
//	   offset zero — without the rewind (keep the replica or the offset
//	   in ship.go's resync to try) the survivors keep the dead
//	   generation's census and the final three-way /compare diverges.
//
// The run ends with a convergence proof: every accepted job done, every
// replica byte-caught-up, and a three-way byte-identical /compare. The
// schedule is exact rather than statistical, so a failure replays by
// running the test again; it logs each node's netfaulty decision log.
//
//sync4:covers SYNC4-CLUS-003
//sync4:covers SYNC4-CLUS-004
func TestRunChaosFullSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedule takes seconds; skipped in -short")
	}
	ids := []string{"a", "b", "c"}
	faults := make(map[string]*netfaulty.Transport, len(ids))
	nodes := startTestCluster(t, ids, func(id string, scfg *server.Config, ccfg *Config) {
		// Every exchange flows through the fault layer and onto its
		// decision log. A restarted node re-enters here and gets a fresh
		// transport with no rules installed.
		faults[id] = netfaulty.New(peernet.NewHTTPTransport(ccfg.HTTPTimeout))
		ccfg.Transport = faults[id]
		ccfg.BreakerCooldown = 250 * time.Millisecond
		ccfg.RetryBaseDelay = 5 * time.Millisecond
		switch id {
		case "a":
			// The designated victim: the backlog behind its one gated worker
			// is what the thief fights the partition over. It reclaims owed
			// outcomes fast and never steals.
			scfg.Workers = 1
			ccfg.ReclaimAfter = 250 * time.Millisecond
			ccfg.StealInterval = time.Hour
		case "b":
			ccfg.StealInterval = time.Hour // only c steals: the partition phase is exact
		}
	})
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		t.Logf("chaos schedule failed; directed faults injected per node as peer/endpoint#seq:")
		for _, id := range ids {
			var log strings.Builder
			for _, d := range faults[id].Report().Decisions {
				fmt.Fprintf(&log, " %s/%s#%d:%s", d.Peer, d.Endpoint, d.Seq, d.Fault)
			}
			t.Logf("node %s:%s", id, log.String())
		}
	})
	submitAll := func(via *testNode, pin bool, kit string, seeds ...int64) []string {
		var out []string
		for _, seed := range seeds {
			out = append(out, submitTo(t, via.base, specBody("fft", kit, seed), pin))
		}
		return out
	}
	// allDone is the zero-lost-jobs check: an error state or a job stuck
	// short of a terminal state fails the schedule.
	allDone := func(phase string, via *testNode, jobs []string) {
		for _, id := range jobs {
			if v := jobView(t, via.base, id); v["status"] != "done" {
				t.Fatalf("%s: job %s finished %v, want done", phase, id, v["status"])
			}
		}
	}
	brkCA := func() (int32, int64) { return c.cl.peers["a"].brk.snapshot() }

	// ---- Phase A: baseline under a clean network. -------------------------
	var baseline []string
	for seed := int64(1); seed <= 3; seed++ {
		via := nodes[ids[seed%3]]
		baseline = append(baseline, submitAll(via, false, "classic", seed)...)
		baseline = append(baseline, submitAll(via, false, "lockfree", seed)...)
	}
	allDone("phase A", a, baseline)
	awaitReplication(t, a, b, c)
	compareIdentical(t, a, b, c)

	// ---- Phase B: asymmetric partition during stealing. -------------------
	// Stage one drops c→a data exchanges (completion, re-probe, journal)
	// while health and steal still flow: thefts keep happening, every
	// completion dies in transit, and the failing gated traffic trips c's
	// breaker for a. Health must keep flowing here — the shipper and
	// stealer only talk to peers they believe are up.
	faults["c"].Partition("a", peernet.EndpointComplete, peernet.EndpointStolenQ, peernet.EndpointJournal)
	a.gate.arm()
	pinned := submitAll(a, true, "lockfree", 100, 101, 102, 103, 104, 105)
	waitFor(t, "phase B: c never lost a completion against the partition", func() bool {
		return c.cl.stealErrors.Load() > 0 && a.srv.StolenCount() > 0
	})
	waitFor(t, "phase B: c's breaker for a never opened", func() bool {
		st, _ := brkCA()
		return st == breakerOpen
	})
	// Stage two: the full directed drop, health included. c must see a
	// down while a still sees c up — the partition is asymmetric.
	faults["c"].Partition("a")
	waitFor(t, "phase B: c never saw a down through the partition", func() bool {
		return !c.cl.peers["a"].up.Load()
	})
	if !a.cl.peers["c"].up.Load() {
		t.Fatal("phase B: a sees c down — the partition was supposed to be asymmetric")
	}
	// a's reclaim deadline takes every owed loan home.
	waitFor(t, "phase B: a never reclaimed its loans", func() bool { return a.srv.StolenCount() == 0 })
	// Heal. c's prober counts the heal and the breaker walks back to
	// closed through a half-open trial on the resuming journal traffic.
	faults["c"].Heal("a")
	waitFor(t, "phase B: c's breaker for a never closed after the heal", func() bool {
		st, _ := brkCA()
		return st == breakerClosed && c.cl.peers["a"].up.Load()
	})
	a.gate.release()
	allDone("phase B", a, pinned)
	if st, transitions := brkCA(); transitions < 3 || st != breakerClosed {
		t.Fatalf("phase B: breaker logged %d transitions ending %s, want the closed→open→half-open→closed walk",
			transitions, breakerStateName(st))
	}
	if c.cl.partitionHeals.v.Load() == 0 {
		t.Fatal("phase B: c counted no partition heal")
	}

	// ---- Phase C: latency storm on the journal tail. ----------------------
	// The two jobs land on a after the hold is installed, so b can only
	// replicate them through held fetches.
	faults["b"].SetLatency("a", 160*time.Millisecond, peernet.EndpointJournal)
	allDone("phase C", a, submitAll(a, true, "lockfree", 200, 201))
	pa := b.cl.peers["a"]
	waitFor(t, "phase C: b's replica of a never caught up through the held journal fetches", func() bool {
		return pa.replica.Len() == len(a.srv.Store().All()) && pa.shipLag() == 0
	})
	if held := faults["b"].Report().Injected[netfaulty.FaultLatency]; held == 0 {
		t.Fatal("phase C: no journal fetch of b's was held")
	}
	faults["b"].Heal("a")

	// ---- Phase D: origin crash-restart mid-tail. --------------------------
	// First make sure the followers fully tailed a's journal, so the
	// record about to be truncated is one they already replicated — the
	// resync must *remove* state, the hardest direction.
	awaitReplication(t, a, b, c)
	a.kill()
	a.stop()
	chaosTruncateLastRecord(t, a.journal)
	waitFor(t, "phase D: followers never saw a down after the kill", func() bool {
		return !b.cl.peers["a"].up.Load() && !c.cl.peers["a"].up.Load()
	})
	// Restart a in place: same address, same journal, fresh store open —
	// which is a new journal generation by construction.
	a.start(t, chaosRebind(t, strings.TrimPrefix(a.base, "http://")))
	// The followers must notice the generation change and resync: their
	// replicas drop to a's surviving record set, one record smaller than
	// what they tailed before the crash.
	for _, f := range []*testNode{b, c} {
		waitFor(t, "phase D: "+f.id+" never resynced a's replica after the restart", func() bool {
			return f.cl.resyncs.v.Load() > 0 && f.cl.peers["a"].replica.Len() == len(a.srv.Store().All())
		})
	}
	if b.cl.repairBytes.v.Load() == 0 {
		t.Fatal("phase D: the resync pulled no bytes on b")
	}

	// ---- Convergence proof. ----------------------------------------------
	allDone("final", b, submitAll(b, false, "lockfree", 300, 301, 302))
	awaitReplication(t, a, b, c)
	compareIdentical(t, a, b, c)

	// The robustness counters must be visible on /metrics, not just in
	// process state — the scrape and the decision log are the operator's
	// view of the run — and phase B's directed drops must be on c's log.
	scrape := string(getBody(t, c.base+"/metrics"))
	for _, series := range []string{
		`splash4d_peer_breaker_state{peer="a"}`,
		`splash4d_peer_breaker_transitions_total{peer="a"}`,
		`splash4d_peer_retries_total{endpoint=`,
		"splash4d_journal_resyncs_total",
		"splash4d_repair_bytes_total",
		"splash4d_partition_heals_total",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("series %s missing from c's /metrics", series)
		}
	}
	if len(faults["c"].Report().Decisions) == 0 {
		t.Error("c's netfaulty decision log is empty")
	}
}

// chaosTruncateLastRecord drops the journal's last line — the crash that
// loses an acknowledged-but-unshipped suffix, the exact state a resync
// exists for.
func chaosTruncateLastRecord(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	if i < 0 {
		t.Fatalf("journal %s has fewer than two records", path)
	}
	if err := os.WriteFile(path, data[:i+1], 0o644); err != nil {
		t.Fatal(err)
	}
}

// chaosRebind reopens a listener on the exact address a dead node held, so
// the restarted node is reachable at the peers' configured base URL.
func chaosRebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	var ln net.Listener
	waitFor(t, "could not rebind "+addr, func() bool {
		var err error
		ln, err = net.Listen("tcp", addr)
		return err == nil
	})
	return ln
}

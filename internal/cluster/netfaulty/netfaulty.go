// Package netfaulty is the cluster's network-fault layer: a
// peernet.PeerTransport decorator (in the mold of sync4/faulty, which
// plays the same role for synchronization operations) that perturbs peer
// exchanges by directed rules. The cluster's partition-tolerance claim —
// that breakers, retry budgets, reclaim and the journal tail's resync
// converge every node back to a byte-identical census — is only credible
// if it survives hostile networks, not just loopback; this package
// manufactures the hostile networks on demand.
//
// Fault classes:
//
//   - latency: SetLatency holds every exchange to a peer (or to some of
//     its endpoints) before it reaches the wire, widening probe gaps and
//     slowing journal tails;
//   - partition: Partition(b) on node A's transport refuses every
//     exchange A→B while B's transport is untouched — the asymmetric
//     "A sees B down, B sees A up" split.
//
// The rules are schedule steps a test installs and heals at phase
// boundaries, so the schedule is exact rather than statistical and a
// failing run replays by running the test again. Every injection is
// counted, and the first decisionCap are kept verbatim for the
// post-mortem decision log.
package netfaulty

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster/peernet"
)

// Fault enumerates the injected fault classes.
type Fault uint8

// Fault classes, in injection-report order.
const (
	FaultLatency Fault = iota
	FaultPartition
	numFaults
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultLatency:
		return "latency"
	case FaultPartition:
		return "partition"
	default:
		return "fault-unknown"
	}
}

// decisionCap bounds the decision log: the first decisionCap injections
// are kept, later ones are only counted.
const decisionCap = 512

// Decision is one recorded injection: the Seq-th exchange with Peer on
// Endpoint drew fault class Fault.
type Decision struct {
	Peer     string
	Endpoint string
	Seq      int64
	Fault    Fault
}

// Report is a snapshot of a transport's injection activity.
type Report struct {
	// Ops is the number of exchanges that passed through the transport.
	Ops int64
	// Injected counts injections per fault class, indexed by Fault.
	Injected [numFaults]int64
	// Decisions holds the first decisionCap recorded decisions.
	Decisions []Decision
}

// rule is the scope of a directed rule or an exchange counter: one peer's
// endpoint, or with endpoint "" every endpoint of the peer.
type rule struct{ peer, endpoint string }

// scopes returns the rules that peer and endpoints name: the whole peer
// when no endpoint is given.
func scopes(peer string, endpoints []string) []rule {
	if len(endpoints) == 0 {
		return []rule{{peer: peer}}
	}
	out := make([]rule, len(endpoints))
	for i, ep := range endpoints {
		out[i] = rule{peer, ep}
	}
	return out
}

// Transport decorates an inner PeerTransport with the directed rules. All
// methods are safe for concurrent use.
type Transport struct {
	inner peernet.PeerTransport

	mu       sync.Mutex
	ops      int64
	seq      map[rule]int64 // per (peer, endpoint) exchange count
	parts    map[rule]bool  // directed drops
	slow     map[rule]time.Duration
	injected [numFaults]int64
	rec      []Decision
}

// New decorates inner with an empty rule set: every exchange passes
// through until a rule is installed.
func New(inner peernet.PeerTransport) *Transport {
	return &Transport{
		inner: inner,
		seq:   make(map[rule]int64),
		parts: make(map[rule]bool),
		slow:  make(map[rule]time.Duration),
	}
}

// Partition installs a directed drop of every exchange to peer, or only
// the named endpoints when given. The peer's own transport is unaffected,
// which is exactly what makes the split asymmetric.
func (t *Transport) Partition(peer string, endpoints ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range scopes(peer, endpoints) {
		t.parts[r] = true
	}
}

// Heal removes every directed drop and latency rule toward peer.
func (t *Transport) Heal(peer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for r := range t.parts {
		if r.peer == peer {
			delete(t.parts, r)
		}
	}
	for r := range t.slow {
		if r.peer == peer {
			delete(t.slow, r)
		}
	}
}

// SetLatency installs a directed hold of d on every exchange to peer, or
// only the named endpoints when given. d <= 0 removes the matching rules.
func (t *Transport) SetLatency(peer string, d time.Duration, endpoints ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range scopes(peer, endpoints) {
		if d <= 0 {
			delete(t.slow, r)
			continue
		}
		t.slow[r] = d
	}
}

// Report snapshots the injection counts and recorded decisions.
func (t *Transport) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := Report{Ops: t.ops, Injected: t.injected}
	r.Decisions = append(r.Decisions, t.rec...)
	return r
}

// inject counts and records one injection. Caller holds mu.
func (t *Transport) inject(f Fault, r rule, n int64) {
	t.injected[f]++
	if len(t.rec) < decisionCap {
		t.rec = append(t.rec, Decision{Peer: r.peer, Endpoint: r.endpoint, Seq: n, Fault: f})
	}
}

// decide resolves the directed rules for the exchange: a partition
// refuses it, otherwise a latency rule may hold it.
func (t *Transport) decide(call *peernet.PeerCall) (hold time.Duration, refuse bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	r, all := rule{call.Peer, call.Endpoint}, rule{peer: call.Peer}
	n := t.seq[r] + 1
	t.seq[r] = n
	if t.parts[all] || t.parts[r] {
		t.inject(FaultPartition, r, n)
		return 0, true
	}
	d, ok := t.slow[all]
	if !ok {
		d, ok = t.slow[r]
	}
	if ok {
		t.inject(FaultLatency, r, n)
	}
	return d, false
}

// RoundTrip applies the decided fate and delegates to the inner transport.
func (t *Transport) RoundTrip(ctx context.Context, call *peernet.PeerCall) (*peernet.PeerResponse, error) {
	hold, refuse := t.decide(call)
	if refuse {
		return nil, fmt.Errorf("netfaulty: connection to %s refused (%s)", call.Peer, call.Endpoint)
	}
	if hold > 0 {
		timer := time.NewTimer(hold)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	return t.inner.RoundTrip(ctx, call)
}

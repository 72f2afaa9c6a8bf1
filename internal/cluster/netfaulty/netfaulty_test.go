package netfaulty

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/peernet"
)

// okTransport answers every exchange with a fixed 200 body, counts how
// many exchanges reached it — the "wire" under the fault layer — and
// notes when the last one did.
type okTransport struct {
	hits int
	at   time.Time
	body string
}

func (o *okTransport) RoundTrip(_ context.Context, _ *peernet.PeerCall) (*peernet.PeerResponse, error) {
	o.hits++
	o.at = time.Now()
	return &peernet.PeerResponse{
		Status: 200,
		Header: make(map[string][]string),
		Body:   io.NopCloser(strings.NewReader(o.body)),
	}, nil
}

func healthCall(peer string) *peernet.PeerCall {
	return &peernet.PeerCall{Peer: peer, Endpoint: peernet.EndpointHealth,
		Method: "GET", URL: "http://" + peer + "/peer/health"}
}

func journalCall(peer string) *peernet.PeerCall {
	return &peernet.PeerCall{Peer: peer, Endpoint: peernet.EndpointJournal,
		Method: "GET", URL: "http://" + peer + "/peer/journal"}
}

// roundTrip performs one exchange under timeout and closes its body.
func roundTrip(ft *Transport, call *peernet.PeerCall, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := ft.RoundTrip(ctx, call)
	if err == nil {
		resp.Body.Close()
	}
	return err
}

// TestDirectedPartitionBeatsDice asserts a Partition rule refuses every
// exchange to the target, that it is directed (other peers unaffected),
// endpoint-scopable, and that Heal restores flow.
func TestDirectedPartitionBeatsDice(t *testing.T) {
	inner := &okTransport{body: "x"}
	ft := New(inner)

	ft.Partition("b")
	for i := 0; i < 5; i++ {
		if _, err := ft.RoundTrip(context.Background(), healthCall("b")); err == nil {
			t.Fatal("partitioned exchange went through")
		}
	}
	if inner.hits != 0 {
		t.Fatalf("%d exchanges reached the wire through a partition", inner.hits)
	}
	if resp, err := ft.RoundTrip(context.Background(), healthCall("c")); err != nil {
		t.Fatalf("partition of b leaked onto c: %v", err)
	} else {
		resp.Body.Close()
	}

	ft.Heal("b")
	resp, err := ft.RoundTrip(context.Background(), healthCall("b"))
	if err != nil {
		t.Fatalf("exchange after heal failed: %v", err)
	}
	resp.Body.Close()

	// Endpoint-scoped partition: journal refused, health flows.
	ft.Partition("b", peernet.EndpointJournal)
	if _, err := ft.RoundTrip(context.Background(), journalCall("b")); err == nil {
		t.Fatal("endpoint-scoped partition did not refuse the journal fetch")
	}
	resp, err = ft.RoundTrip(context.Background(), healthCall("b"))
	if err != nil {
		t.Fatalf("endpoint-scoped partition leaked onto health: %v", err)
	}
	resp.Body.Close()

	r := ft.Report()
	if r.Injected[FaultPartition] != 6 {
		t.Fatalf("counted %d partition injections, want 6", r.Injected[FaultPartition])
	}
	if len(r.Decisions) == 0 || r.Decisions[0].Fault != FaultPartition {
		t.Fatalf("decision log %+v does not lead with the partition", r.Decisions)
	}
}

// TestSetLatencyHoldsBeforeTheWire asserts a SetLatency rule holds each
// matching exchange for its duration before the inner transport sees it,
// that a context cancelled mid-hold ends the exchange short of the wire,
// that the rule is directed and endpoint-scopable, that d <= 0 and Heal
// each remove it, and that every hold is counted.
func TestSetLatencyHoldsBeforeTheWire(t *testing.T) {
	const hold = 30 * time.Millisecond
	// long is never waited out: an exchange under it ends by its context.
	// An exchange that must not be held gets long/2, so a leaked rule
	// fails it instead of passing late.
	const long = time.Second
	const cancelAfter = 20 * time.Millisecond
	inner := &okTransport{body: "x"}
	ft := New(inner)

	ft.SetLatency("b", hold)
	start := time.Now()
	if err := roundTrip(ft, healthCall("b"), long); err != nil {
		t.Fatalf("held exchange failed: %v", err)
	}
	if inner.hits != 1 || inner.at.Sub(start) < hold {
		t.Fatalf("exchange reached the wire %v after it began, before the %v hold ended", inner.at.Sub(start), hold)
	}

	ft.SetLatency("b", long) // replaces the peer-wide rule
	if err := roundTrip(ft, healthCall("b"), cancelAfter); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exchange cancelled mid-hold returned %v, want the context's error", err)
	}
	if inner.hits != 1 {
		t.Fatal("exchange cancelled mid-hold reached the wire")
	}
	if err := roundTrip(ft, healthCall("c"), long/2); err != nil {
		t.Fatalf("latency toward b held the exchange with c: %v", err)
	}
	ft.Heal("b")
	if err := roundTrip(ft, healthCall("b"), long/2); err != nil {
		t.Fatalf("exchange after heal was still held: %v", err)
	}

	// Endpoint-scoped latency: journal held, health flows.
	ft.SetLatency("b", long, peernet.EndpointJournal)
	if err := roundTrip(ft, journalCall("b"), cancelAfter); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("endpoint-scoped latency did not hold the journal fetch: %v", err)
	}
	if err := roundTrip(ft, healthCall("b"), long/2); err != nil {
		t.Fatalf("endpoint-scoped latency leaked onto health: %v", err)
	}
	ft.SetLatency("b", 0, peernet.EndpointJournal)
	if err := roundTrip(ft, journalCall("b"), long/2); err != nil {
		t.Fatalf("journal fetch still held after SetLatency(0): %v", err)
	}

	r := ft.Report()
	if r.Injected[FaultLatency] != 3 || r.Injected[FaultPartition] != 0 {
		t.Fatalf("counted %v injections, want 3 latency holds and nothing else", r.Injected)
	}
	if r.Ops != 7 || len(r.Decisions) != 3 {
		t.Fatalf("report %+v: want 7 exchanges and 3 recorded decisions", r)
	}
}

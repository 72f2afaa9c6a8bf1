package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster/peernet"
)

// closeTracker is a response body that records whether it was closed.
type closeTracker struct {
	io.Reader
	closed atomic.Bool
}

func (b *closeTracker) Close() error {
	b.closed.Store(true)
	return nil
}

// scriptedTransport answers the n-th exchange with statuses[n] (the last
// entry repeats), with body on a 200 and an error envelope otherwise, and
// keeps every body it handed out so a test can check each one ends closed.
type scriptedTransport struct {
	statuses []int
	header   http.Header
	body     string

	mu     sync.Mutex
	bodies []*closeTracker
}

func (s *scriptedTransport) RoundTrip(_ context.Context, _ *peernet.PeerCall) (*peernet.PeerResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	status := s.statuses[min(len(s.bodies), len(s.statuses)-1)]
	b := &closeTracker{Reader: strings.NewReader(s.body)}
	if status != http.StatusOK {
		b.Reader = strings.NewReader(`{"error":"unavailable"}`)
	}
	s.bodies = append(s.bodies, b)
	return &peernet.PeerResponse{Status: status, Header: s.header.Clone(), Body: b}, nil
}

// TestRetryableReadsCloseEveryBody drives each retryable read through its
// real caller over a transport that fails it with 503 first. The failed
// attempt's body must be closed before the retry, the caller must close
// the one it gets, and the retry must be counted; when every attempt
// fails, every body still ends closed.
func TestRetryableReadsCloseEveryBody(t *testing.T) {
	line := journalLine(t, "r-origin-1", 1)
	reads := []struct {
		endpoint string
		header   http.Header
		body     string
		read     func(c *Cluster, p *peer) error
	}{
		{peernet.EndpointHealth, nil, `{"node":"origin","status":"ok","ready":true}`,
			func(c *Cluster, p *peer) error { _, err := c.fetchHealth(p); return err }},
		{peernet.EndpointJournal, http.Header{journalSizeHeader: {fmt.Sprint(len(line))}}, string(line),
			func(c *Cluster, p *peer) error { _, err := c.fetchJournal(p); return err }},
		{peernet.EndpointStolenQ, nil, `{"id":"r-origin-1","awaiting":true}`,
			func(c *Cluster, p *peer) error {
				if !c.victimAwaits(p, "r-origin-1") {
					return fmt.Errorf("victim not awaiting")
				}
				return nil
			}},
	}
	scripts := []struct {
		name     string
		statuses []int
		ok       bool
	}{
		{"503 then 200", []int{http.StatusServiceUnavailable, http.StatusOK}, true},
		{"503 throughout", []int{http.StatusServiceUnavailable}, false},
	}
	for _, rd := range reads {
		for _, sc := range scripts {
			t.Run(rd.endpoint+"/"+sc.name, func(t *testing.T) {
				tr := &scriptedTransport{statuses: sc.statuses, header: rd.header, body: rd.body}
				c := shippingCluster(t)
				c.cfg.RetryMax = 2
				c.transport = tr
				err := rd.read(c, testPeer("origin", "http://origin"))
				if ok := err == nil; ok != sc.ok {
					t.Fatalf("read returned %v, want success %v", err, sc.ok)
				}
				wantAttempts := len(sc.statuses)
				if !sc.ok {
					wantAttempts = c.retryMax() + 1
				}
				if len(tr.bodies) != wantAttempts {
					t.Fatalf("%d attempts, want %d", len(tr.bodies), wantAttempts)
				}
				for i, b := range tr.bodies {
					if !b.closed.Load() {
						t.Errorf("body of attempt %d was never closed", i+1)
					}
				}
				if got := c.retries[endpointIndex(rd.endpoint)].v.Load(); got != int64(wantAttempts-1) {
					t.Fatalf("%d retries counted, want %d", got, wantAttempts-1)
				}
			})
		}
	}
}

// TestPeerReadsKeepOneConnection: with bodies streamed to their callers
// instead of drained by the call path, the transport can reuse a
// connection only if each caller reads its body to the end and closes it,
// and the call path drains a failed attempt's body before its retry.
// Twenty health probes and twenty journal fetches against one peer, every
// fourth fetch answered 503 first, must open a single TCP connection.
func TestPeerReadsKeepOneConnection(t *testing.T) {
	line := journalLine(t, "r-origin-1", 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/peer/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthView{Node: "origin", Status: "ok", Ready: true})
	})
	var fetches atomic.Int64
	mux.HandleFunc("/peer/journal", func(w http.ResponseWriter, r *http.Request) {
		if fetches.Add(1)%5 == 1 {
			writeError(w, http.StatusServiceUnavailable, "busy")
			return
		}
		w.Header().Set(journalSizeHeader, "1000000")
		w.Write(line)
	})
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	c := shippingCluster(t)
	c.cfg.RetryMax = 2
	p := testPeer("origin", ts.URL)
	for i := 0; i < 20; i++ {
		if _, err := c.fetchHealth(p); err != nil {
			t.Fatalf("health probe %d: %v", i+1, err)
		}
		if n, err := c.fetchJournal(p); err != nil || n != len(line) {
			t.Fatalf("journal fetch %d: %d bytes, %v; want %d", i+1, n, err, len(line))
		}
	}
	if n := p.replica.Len(); n != 20 {
		t.Fatalf("replica holds %d records, want 20", n)
	}
	if n := c.retries[endpointIndex(peernet.EndpointJournal)].v.Load(); n != 5 {
		t.Fatalf("%d journal retries, want 5", n)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("the peer reads opened %d connections, want 1", n)
	}
}

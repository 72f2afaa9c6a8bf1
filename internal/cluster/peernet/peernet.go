// Package peernet is the transport seam under the cluster layer: every
// byte a node exchanges with a peer — health probes, steal round trips,
// completion callbacks, journal tails, forwarded client requests — crosses
// one PeerTransport.RoundTrip call. The seam exists so the transport can
// be decorated: cluster/netfaulty wraps any PeerTransport in directed
// network faults (partitions and held exchanges that a test schedule
// installs and heals), and internal/cluster layers per-peer
// circuit breakers and retry budgets on top of whichever transport it is
// given. HTTPTransport is the production implementation.
package peernet

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"time"
)

// Endpoint names one peer-exchange kind. Calls carry the endpoint so
// decorators can make per-endpoint decisions (a fault plan that only slows
// journal tails, a breaker policy that never blind-retries completions)
// without parsing URLs.
const (
	EndpointHealth   = "health"   // GET /peer/health
	EndpointSteal    = "steal"    // POST /peer/steal
	EndpointComplete = "complete" // POST /peer/complete
	EndpointStolenQ  = "stolenq"  // GET /peer/stolen (completion re-probe)
	EndpointJournal  = "journal"  // GET /peer/journal
	EndpointForward  = "forward"  // proxied client request (/runs...)
)

// Endpoints lists every endpoint in the canonical order metric emitters
// iterate, so labeled series appear in a stable order.
var Endpoints = []string{
	EndpointHealth, EndpointSteal, EndpointComplete,
	EndpointStolenQ, EndpointJournal, EndpointForward,
}

// PeerCall is one outbound peer exchange. Peer is the target's node ID —
// decorators key decisions on it rather than the URL, which embeds
// ephemeral test ports. Body is a byte slice, not a reader, so a retry can
// replay the call without coordination.
type PeerCall struct {
	Peer     string
	Endpoint string
	Method   string
	URL      string
	Header   http.Header
	Body     []byte
}

// PeerResponse is the transport-level result of a PeerCall. The caller
// owns Body and closes it.
type PeerResponse struct {
	Status int
	Header http.Header
	Body   io.ReadCloser
}

// PeerTransport performs one peer exchange. Implementations return an
// error only for transport-level failures (dial, timeout, torn response);
// an HTTP error status is a successful round trip.
type PeerTransport interface {
	RoundTrip(ctx context.Context, call *PeerCall) (*PeerResponse, error)
}

// HTTPTransport is the production PeerTransport: two http.Clients over a
// shared dialer. Peer-API exchanges (health, steal, complete, journal) run
// under an overall timeout; forwarded client requests use the streaming
// client, which deliberately has no overall timeout — an SSE hop lives as
// long as the job — but does bound dialing, TLS, and the wait for response
// headers, so a black-holed peer fails the hop instead of hanging it
// forever.
type HTTPTransport struct {
	peer   *http.Client
	stream *http.Client
}

// NewHTTPTransport builds the production transport. timeout bounds one
// peer-API exchange end to end; connection establishment and the
// response-header wait of streaming forwards are bounded separately.
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	base := &http.Transport{
		DialContext:         dialer.DialContext,
		TLSHandshakeTimeout: 5 * time.Second,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}
	stream := base.Clone()
	stream.ResponseHeaderTimeout = 15 * time.Second
	return &HTTPTransport{
		peer:   &http.Client{Timeout: timeout, Transport: base},
		stream: &http.Client{Transport: stream},
	}
}

// RoundTrip performs the exchange over the endpoint-appropriate client.
func (t *HTTPTransport) RoundTrip(ctx context.Context, call *PeerCall) (*PeerResponse, error) {
	var body io.Reader
	if call.Body != nil {
		body = bytes.NewReader(call.Body)
	}
	req, err := http.NewRequestWithContext(ctx, call.Method, call.URL, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range call.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	client := t.peer
	if call.Endpoint == EndpointForward {
		client = t.stream
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	return &PeerResponse{Status: resp.StatusCode, Header: resp.Header, Body: resp.Body}, nil
}

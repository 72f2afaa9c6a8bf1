package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/server"
)

// Request routing. Handler serves the peer API itself and wraps the local
// server's public API with two routed paths:
//
//   - POST /runs: the normalized spec key's owner is its rendezvous choice
//     among the healthy nodes; when the owner is another node the request
//     is proxied there, so identical specs land — and singleflight-dedup —
//     on the same node no matter which node the client hit. If the hop fails at the transport
//     level the job is admitted locally instead: availability over
//     placement.
//
//   - GET /runs/{id} and /runs/{id}/events: clustered job IDs embed their
//     owner ("r-<node>-<seq>"); requests for another node's job proxy to
//     it, SSE streams included.
//
// Proxied requests carry the client's X-Request-ID (minted here when
// absent) so both nodes' access logs share one ID, and a hop-guard header
// names the forwarding node: a request that already carries it is served
// locally, never re-forwarded, so misconfigured routing degrades to local
// service instead of looping.

// forwardedByHeader is the hop guard. Its value is the forwarding node's
// ID, which also lets the owner's logs name the first-contact node.
const forwardedByHeader = "X-Splash4d-Forwarded-By"

// Handler returns the node's full HTTP surface: the peer API plus the
// routed public API.
func (c *Cluster) Handler() http.Handler {
	inner := c.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/health", c.handlePeerHealth)
	mux.HandleFunc("POST /peer/steal", c.handlePeerSteal)
	mux.HandleFunc("POST /peer/complete", c.handlePeerComplete)
	mux.HandleFunc("GET /peer/stolen", c.handlePeerStolenQ)
	mux.HandleFunc("GET /peer/journal", c.handlePeerJournal)
	mux.Handle("POST /runs", c.routeSubmit(inner))
	mux.Handle("GET /runs/{id}", c.routeByID(inner))
	mux.Handle("GET /runs/{id}/events", c.routeByID(inner))
	mux.Handle("/", inner)
	return mux
}

// routeSubmit forwards POST /runs to the spec's owning node.
//
//sync4:req SYNC4-CLUS-001 v2 MUST A request that arrives carrying the hop-guard header is served locally and never re-forwarded, so misconfigured or disagreeing routing degrades to local service instead of a forwarding loop.
func (c *Cluster) routeSubmit(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if r.Header.Get(forwardedByHeader) != "" {
			inner.ServeHTTP(w, r) // hop guard: one forward max
			return
		}
		var sp server.Spec
		// Decode and normalize only to compute the routing key; malformed
		// bodies fall through to local admission, whose validation owns the
		// client-facing 400.
		if err := json.Unmarshal(body, &sp); err != nil {
			inner.ServeHTTP(w, r)
			return
		}
		if err := c.srv.NormalizeSpec(&sp); err != nil {
			inner.ServeHTTP(w, r)
			return
		}
		owner := c.routeOwner(sp.Key())
		if owner == c.cfg.Self {
			inner.ServeHTTP(w, r)
			return
		}
		if !c.forward(w, r, owner, body) {
			// The hop failed in transit: admit locally rather than bounce
			// the client. Dedup and journal placement are best-effort while
			// the owner is unreachable; reclaim-style consistency comes
			// from the journal's ID-carrying records.
			r.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(w, r)
		}
	})
}

// routeByID forwards GET /runs/{id}[...] to the node named in the ID.
func (c *Cluster) routeByID(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(forwardedByHeader) != "" {
			inner.ServeHTTP(w, r)
			return
		}
		owner := ownerFromJobID(r.PathValue("id"))
		if owner == "" || owner == c.cfg.Self {
			inner.ServeHTTP(w, r)
			return
		}
		p := c.peers[owner]
		if p == nil || !p.up.Load() {
			inner.ServeHTTP(w, r) // unknown or down owner: local answer (404 at worst)
			return
		}
		if !c.forward(w, r, owner, nil) {
			inner.ServeHTTP(w, r)
		}
	})
}

// ownerFromJobID extracts the node ID from a clustered job ID
// ("r-<node>-<seq>"); "" for single-node IDs ("r-<seq>") or anything else.
func ownerFromJobID(id string) string {
	if !strings.HasPrefix(id, "r-") {
		return ""
	}
	rest := id[len("r-"):]
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return "" // "r-<seq>": the single-node form
	}
	return rest[:i]
}

// forward proxies the request to owner and relays the response, streaming
// (and flushing) the body so SSE works across the hop. It reports false if
// the hop failed before any response byte was written — including an open
// circuit breaker failing the hop without a network attempt — in which
// case the caller serves locally; once relaying has begun, failures
// terminate the response as-is. The hop rides the transport stack as a
// single breaker-gated attempt, never retried: the local fallback is
// faster and always available, and the body may be a long-lived SSE
// stream.
func (c *Cluster) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	p := c.peers[owner]
	if p == nil {
		return false
	}
	start := time.Now()
	id := c.srv.EnsureRequestID(r)
	hdr := make(http.Header, 4)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr.Set("Content-Type", ct)
	}
	if acc := r.Header.Get("Accept"); acc != "" {
		hdr.Set("Accept", acc)
	}
	hdr.Set("X-Request-ID", id)
	hdr.Set(forwardedByHeader, c.cfg.Self)
	// The client's request context bounds the hop, not c.ctx: an SSE hop
	// lives exactly as long as the client keeps listening.
	resp, err := c.call(r.Context(), p, peernet.EndpointForward, r.Method, r.URL.RequestURI(), hdr, body)
	if err != nil {
		c.forwardErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	c.forwardedTotal.Add(1)

	for _, h := range []string{"Content-Type", "Retry-After", "X-Request-ID", "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.Status)
	var written int64
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			written += int64(wn)
			if fl != nil {
				fl.Flush()
			}
			if werr != nil {
				break
			}
		}
		if rerr != nil {
			break
		}
	}
	// Proxied exchanges bypass the server's telemetry middleware; leave
	// the same access-log trail and status count it would have, annotated
	// with the peer that served the hop.
	c.srv.ObserveForward(start, id, r, owner, resp.Status, written)
	return true
}

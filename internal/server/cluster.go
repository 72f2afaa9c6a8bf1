package server

import (
	"io"
	"net/http"
	"time"

	"repro/internal/resultstore"
)

// The server's cluster seam. internal/cluster imports this package and
// never the reverse: the daemon stays fully functional single-node, and a
// cluster node is the same server with hooks installed and the peer API
// mounted in front of Handler.

// ClusterHooks extends the read paths with cluster-replicated data. All
// fields are optional; a nil hook falls back to local-only behavior.
type ClusterHooks struct {
	// Times returns the pooled repetition times for one population across
	// the whole cluster (this node's journal plus every replicated peer
	// journal), in a canonical order — node-ID-sorted, journal order within
	// a node — so every node's /compare sees byte-identical samples.
	Times func(resultstore.Key) []int64
	// Records returns the replicated peers' journal records for /jobs.
	Records func() []resultstore.Record
	// Metrics appends cluster metric families to the /metrics exposition.
	Metrics func(io.Writer)
}

// SetClusterHooks installs (or, with nil, removes) the cluster extensions.
// Install before serving traffic; the pointer swap itself is atomic.
func (s *Server) SetClusterHooks(h *ClusterHooks) { s.hooks.Store(h) }

// timesFor pools one population's repetition times: cluster-wide when
// hooks are installed, this node's journal otherwise.
func (s *Server) timesFor(k resultstore.Key) []int64 {
	if h := s.hooks.Load(); h != nil && h.Times != nil {
		return h.Times(k)
	}
	return s.store.TimesNS(k)
}

// NodeID returns this node's cluster name ("" single-node).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// Inflight reports jobs currently executing locally.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Workers reports the execution pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// NormalizeSpec validates sp against this node's caps and fills defaults in
// place — the same normalization admission applies. The cluster router
// normalizes before hashing Spec.Key so every node routes a given spec to
// the same owner regardless of which optional fields the client spelled
// out.
func (s *Server) NormalizeSpec(sp *Spec) error { return s.validateSpec(sp) }

// Store returns the server's result journal, for the cluster's journal-
// shipping endpoint (GET /peer/journal reads raw bytes from it).
func (s *Server) Store() *resultstore.Store { return s.store }

// ObserveForward records one proxied exchange in this node's telemetry: a
// kind:http access-log line — annotated with the peer that served the
// hop — and the per-status-code request counter, the same trail a
// locally-served request leaves. The cluster forwarder calls it because
// proxied requests bypass withTelemetry's response writer.
func (s *Server) ObserveForward(start time.Time, id string, r *http.Request, peer string, status int, bytes int64) {
	s.countStatus(status)
	e := telemetryHTTPEntry(start, id, r, &statusWriter{status: status, bytes: bytes})
	e.Peer = peer
	s.accessLog.HTTP(e)
}

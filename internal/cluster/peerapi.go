package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/cluster/peernet"
	"repro/internal/server"
)

// The peer-to-peer API. Five endpoints under /peer/, mounted by Handler in
// front of the wrapped server's public API:
//
//	GET  /peer/health    node ID, readiness, queue depth, durable journal
//	                     size
//	POST /peer/steal     {"thief":"b","max":2} → {"jobs":[{"id","spec"},...]}
//	POST /peer/complete  {"id":"r-a-7","result":{...}} → 200 / 410
//	GET  /peer/stolen?id=... → {"awaiting":bool}: completion re-probe
//	GET  /peer/journal?offset=N → raw journal bytes from N, clamped to the
//	                     durable watermark; X-Splash4d-Journal-Size and
//	                     X-Splash4d-Journal-Generation carry the watermark
//	                     and the journal's generation
//
// Peer calls carry X-Request-ID like any other request (the wrapped
// telemetry middleware logs them), and the steal/complete pair carries the
// stealing node's ID so a stolen job's trail names both nodes.

// healthView is the /peer/health body. Status mirrors /healthz ("ok",
// "draining", "degraded"); Ready folds in the /readyz verdict so the
// prober needs one round trip.
type healthView struct {
	Node        string `json:"node"`
	Status      string `json:"status"`
	Ready       bool   `json:"ready"`
	QueueDepth  int    `json:"queue_depth"`
	DurableSize int64  `json:"durable_size"`
}

// handlePeerHealth is GET /peer/health.
func (c *Cluster) handlePeerHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	ready := true
	switch {
	case c.srv.Draining():
		status, ready = "draining", false
	case c.srv.Degraded():
		status, ready = "degraded", false
	}
	writeJSON(w, http.StatusOK, healthView{
		Node:        c.cfg.Self,
		Status:      status,
		Ready:       ready,
		QueueDepth:  c.srv.QueueDepth(),
		DurableSize: c.srv.Store().DurableSize(),
	})
}

// stealRequest is the POST /peer/steal body.
type stealRequest struct {
	Thief string `json:"thief"`
	Max   int    `json:"max"`
}

// handlePeerSteal is POST /peer/steal: donate queued jobs to the thief.
func (c *Cluster) handlePeerSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<12)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding steal request: %v", err)
		return
	}
	if req.Thief == "" || req.Thief == c.cfg.Self {
		writeError(w, http.StatusBadRequest, "steal request needs a thief != self")
		return
	}
	jobs := c.srv.Donate(req.Max, req.Thief)
	if len(jobs) > 0 {
		c.cfg.Logf("cluster: %s donated %d job(s) to %s", c.cfg.Self, len(jobs), req.Thief)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// completeRequest is the POST /peer/complete body.
type completeRequest struct {
	ID     string              `json:"id"`
	Result server.RemoteResult `json:"result"`
}

// handlePeerComplete is POST /peer/complete: land a thief's outcome. 410
// tells the thief the job was reclaimed meanwhile; its work is discarded.
func (c *Cluster) handlePeerComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding completion: %v", err)
		return
	}
	if err := c.srv.CompleteStolen(req.ID, req.Result); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": req.ID, "landed": true})
}

// stolenQView is the GET /peer/stolen body: whether this node still
// awaits a stolen completion for the job.
type stolenQView struct {
	ID       string `json:"id"`
	Awaiting bool   `json:"awaiting"`
}

// handlePeerStolenQ is GET /peer/stolen?id=...: the completion re-probe.
// A thief whose POST /peer/complete failed at the transport level asks
// here whether the victim still awaits the outcome before retrying — the
// completion POST is not idempotent-safe to retry blind, but this read is.
func (c *Cluster) handlePeerStolenQ(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing id")
		return
	}
	writeJSON(w, http.StatusOK, stolenQView{ID: id, Awaiting: c.srv.AwaitingStolen(id)})
}

// journalChunk caps one /peer/journal response body.
const journalChunk = 256 << 10

// journalBufs recycles the read buffers of /peer/journal responses, so a
// follower's catch-up does not allocate one chunk per request.
var journalBufs = sync.Pool{New: func() any { return new([journalChunk]byte) }}

// journalSizeHeader carries the origin's durable journal size on every
// /peer/journal response, so followers can compute ship lag even from an
// empty (caught-up) read.
const journalSizeHeader = "X-Splash4d-Journal-Size"

// journalGenHeader carries the origin journal's generation on every
// /peer/journal response. Followers only ingest bytes whose generation
// matches the one their replica was built from; a mismatch resyncs the
// replica from offset zero (see ship.go).
const journalGenHeader = "X-Splash4d-Journal-Generation"

// handlePeerJournal is GET /peer/journal?offset=N.
func (c *Cluster) handlePeerJournal(w http.ResponseWriter, r *http.Request) {
	off, err := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	if err != nil || off < 0 {
		writeError(w, http.StatusBadRequest, "bad offset")
		return
	}
	// A caught-up poll (the steady state) takes no buffer; ReadJournal clamps.
	store := c.srv.Store()
	var buf []byte
	if avail := store.DurableSize() - off; avail > 0 {
		b := journalBufs.Get().(*[journalChunk]byte)
		defer journalBufs.Put(b)
		buf = b[:min(journalChunk, avail)]
	}
	n, durable, err := store.ReadJournal(buf, off)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading journal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(journalSizeHeader, strconv.FormatInt(durable, 10))
	w.Header().Set(journalGenHeader, strconv.FormatUint(store.Generation(), 10))
	// A declared length sends the body without chunked framing.
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf[:n])
}

// probeLoop polls one peer's /peer/health. An up→down transition reclaims
// every job donated to that peer immediately — waiting out the deadline
// sweep would hold the victim's jobs hostage to a dead thief. A down→up
// transition after the peer was ever up is a partition heal, counted for
// the chaos schedule's convergence assertions; every down→up transition
// wakes the peer's ship loop, so catching up starts now.
func (c *Cluster) probeLoop(p *peer) {
	defer c.wg.Done()
	for {
		hv, err := c.fetchHealth(p)
		was := p.up.Load()
		now := err == nil && hv.Ready
		p.up.Store(now)
		if err == nil {
			p.queueDepth.Store(int64(hv.QueueDepth))
			p.durable.Store(hv.DurableSize)
		} else {
			p.queueDepth.Store(0)
		}
		switch {
		case was && !now:
			c.cfg.Logf("cluster: peer %s down (%v)", p.id, err)
			if n := c.srv.ReclaimStolenFrom(p.id); n > 0 {
				c.cfg.Logf("cluster: reclaimed %d job(s) stolen by dead peer %s", n, p.id)
			}
		case !was && now:
			p.wakeShip()
			if p.everUp.Load() {
				c.partitionHeals.v.Add(1)
				c.cfg.Logf("cluster: peer %s healed", p.id)
			} else {
				p.everUp.Store(true)
				c.cfg.Logf("cluster: peer %s up", p.id)
			}
		}
		if !c.sleep(c.cfg.HealthInterval) {
			return
		}
	}
}

// fetchHealth performs one health probe round trip through the transport
// stack (budget-retried, never breaker-gated: the probe is the liveness
// oracle everything else keys off).
func (c *Cluster) fetchHealth(p *peer) (healthView, error) {
	var hv healthView
	resp, err := c.call(c.ctx, p, peernet.EndpointHealth, http.MethodGet, "/peer/health", nil, nil)
	if err != nil {
		return hv, err
	}
	defer resp.Body.Close()
	if resp.Status != http.StatusOK {
		return hv, fmt.Errorf("peer health: status %d", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&hv); err != nil {
		return hv, err
	}
	return hv, nil
}

// writeJSON and writeError mirror the server's API helpers; the peer API
// speaks the same JSON error envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

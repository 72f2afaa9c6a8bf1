package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/server"
)

// The thief side of work stealing. An idle node — empty admission ring,
// spare worker capacity — asks the busiest healthy peer to donate queued
// jobs, executes each spec on its own engine, and ships the outcome back
// to the victim, which journals it. The loop is pull-based: no coordinator,
// no push fan-out, and a node under load simply never asks. StealInterval
// paces only the idle check: a round that landed a job re-checks at once;
// an empty, failed or wholly reclaimed (410) round goes back to the timer.

// stealLoop is the background stealer.
func (c *Cluster) stealLoop() {
	defer c.wg.Done()
	pause := c.cfg.StealInterval
	for c.sleep(pause) {
		pause = c.cfg.StealInterval
		if c.srv.Draining() || c.srv.Degraded() {
			continue
		}
		// Idle means nothing queued and at least one worker free; steal at
		// most the spare capacity, capped by StealBatch.
		spare := c.srv.Workers() - int(c.srv.Inflight())
		if c.srv.QueueDepth() > 0 || spare <= 0 {
			continue
		}
		victim := c.busiestPeer()
		if victim == nil {
			continue
		}
		jobs, err := c.stealFrom(victim, min(spare, c.cfg.StealBatch))
		if err != nil {
			c.stealErrors.Add(1)
			continue
		}
		landed := c.stolenTotal.Load() // only this goroutine advances it
		for _, sj := range jobs {
			c.runStolen(victim, sj)
		}
		if c.stolenTotal.Load() > landed {
			pause = 0
		}
	}
}

// busiestPeer returns the healthy peer with the deepest queue, nil when no
// peer has queued work. Depths come from the health prober's last probe —
// slightly stale, which only costs an occasional empty steal request.
func (c *Cluster) busiestPeer() *peer {
	var best *peer
	var bestDepth int64
	for _, id := range c.order {
		if id == c.cfg.Self {
			continue
		}
		p := c.peers[id]
		if !p.up.Load() {
			continue
		}
		if d := p.queueDepth.Load(); d > bestDepth {
			best, bestDepth = p, d
		}
	}
	return best
}

// stealFrom asks victim to donate up to max queued jobs. A failed round
// trip is not retried: the donation POST is not idempotent (each call
// takes different jobs off the ring), the stealer asks again next tick
// anyway, and a donation that left the victim but never arrived is
// covered by the victim's reclaim deadline.
func (c *Cluster) stealFrom(victim *peer, max int) ([]server.StolenJob, error) {
	body, _ := json.Marshal(stealRequest{Thief: c.cfg.Self, Max: max})
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, err := c.call(c.ctx, victim, peernet.EndpointSteal, http.MethodPost, "/peer/steal", hdr, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.Status != http.StatusOK {
		return nil, fmt.Errorf("steal from %s: status %d", victim.id, resp.Status)
	}
	var out struct {
		Jobs []server.StolenJob `json:"jobs"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// runStolen executes one donated job and returns the outcome to its owner.
// Execution errors travel inside the RemoteResult; only the completion
// callback's transport failure is counted here — the victim's reclaim
// sweep covers a result that never lands. The completion POST follows the
// admission API's retry contract cluster-side: on a transport failure the
// thief re-probes whether the victim still awaits the result, and resends
// exactly once only when it does; every other answer means the victim has
// moved on (landed, reclaimed, or unreachable) and the measurement is
// dropped.
//
//sync4:req SYNC4-CLUS-005 v2 MUST NOT A failed stolen-completion POST is never retried blind: the thief first re-probes whether the victim still awaits the outcome (GET /peer/stolen) and resends only on an affirmative answer, so a completion that landed but lost its response is never double-delivered by the transport layer.
func (c *Cluster) runStolen(victim *peer, sj server.StolenJob) {
	res := c.srv.ExecuteSpec(c.ctx, sj.Spec)
	if c.killed.Load() {
		return // crashed mid-steal: the victim's reclaim owns the job now
	}
	body, _ := json.Marshal(completeRequest{ID: sj.ID, Result: res})
	status, err := c.postCompletion(victim, body)
	if err != nil {
		c.stealErrors.Add(1)
		c.cfg.Logf("cluster: completing stolen %s on %s failed: %v", sj.ID, victim.id, err)
		if !c.victimAwaits(victim, sj.ID) {
			return // landed, reclaimed, or unknowable: never resend blind
		}
		if !victim.budget.take(time.Now()) {
			return // retry budget dry; the reclaim deadline owns the job
		}
		if i := endpointIndex(peernet.EndpointComplete); i >= 0 {
			c.retries[i].v.Add(1)
		}
		status, err = c.postCompletion(victim, body)
		if err != nil {
			c.stealErrors.Add(1)
			return
		}
	}
	switch status {
	case http.StatusOK:
		c.stolenTotal.Add(1)
	case http.StatusGone:
		// Reclaimed while we ran it; the victim re-executed (or will). Our
		// measurement is discarded — correct, since the victim's journal
		// must hold exactly one outcome per job.
		c.cfg.Logf("cluster: stolen %s was reclaimed by %s before completion", sj.ID, victim.id)
	default:
		c.stealErrors.Add(1)
	}
}

// postCompletion performs one POST /peer/complete exchange.
func (c *Cluster) postCompletion(victim *peer, body []byte) (int, error) {
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, err := c.call(c.ctx, victim, peernet.EndpointComplete, http.MethodPost, "/peer/complete", hdr, body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	return resp.Status, nil
}

// victimAwaits re-probes whether the victim still awaits a stolen
// completion for id. Any failure to learn the answer reports false: when
// the victim is unreachable the reclaim deadline will re-run the job
// there, and a blind resend risks double delivery.
func (c *Cluster) victimAwaits(victim *peer, id string) bool {
	resp, err := c.call(c.ctx, victim, peernet.EndpointStolenQ, http.MethodGet,
		"/peer/stolen?id="+id, nil, nil)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.Status != http.StatusOK {
		return false
	}
	var v stolenQView
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&v); err != nil {
		return false
	}
	return v.Awaiting
}

// reclaimLoop sweeps donated jobs whose outcome has been owed longer than
// ReclaimAfter back onto the local ring. Dead peers are additionally
// reclaimed-from immediately by the health prober's down transition.
func (c *Cluster) reclaimLoop() {
	defer c.wg.Done()
	for c.sleep(c.cfg.ReclaimAfter / 4) {
		if n := c.srv.ReclaimStolen(c.cfg.ReclaimAfter); n > 0 {
			c.cfg.Logf("cluster: reclaimed %d overdue stolen job(s)", n)
		}
	}
}

package cluster

import (
	"fmt"
	"io"

	"repro/internal/cluster/peernet"
)

// writeMetrics is the ClusterHooks.Metrics implementation: cluster metric
// families appended to the node's /metrics exposition. Peer-labeled series
// iterate c.order so scrape output is stable.
func (c *Cluster) writeMetrics(w io.Writer) {
	perPeer := func(name, typ, help string, value func(*peer) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, id := range c.order {
			if id != c.cfg.Self {
				fmt.Fprintf(w, "%s{peer=%q} %d\n", name, id, value(c.peers[id]))
			}
		}
	}
	perPeer("splash4d_peer_up", "gauge", "1 while the peer's last health probe succeeded and it reported ready.",
		func(p *peer) int64 {
			if p.up.Load() {
				return 1
			}
			return 0
		})
	perPeer("splash4d_journal_ship_lag", "gauge", "Durable bytes of the peer's journal not yet replicated here.",
		(*peer).shipLag)
	perPeer("splash4d_journal_replica_records", "gauge", "Records replicated from the peer's journal.",
		func(p *peer) int64 { return int64(p.replica.Len()) })
	perPeer("splash4d_peer_breaker_state", "gauge", "Circuit breaker state for the peer: 0 closed, 1 open, 2 half-open.",
		func(p *peer) int64 { state, _ := p.brk.snapshot(); return int64(state) })
	perPeer("splash4d_peer_breaker_transitions_total", "counter", "Circuit breaker state transitions for the peer since start.",
		func(p *peer) int64 { _, transitions := p.brk.snapshot(); return transitions })

	fmt.Fprintf(w, "# HELP splash4d_peer_retries_total Peer exchanges retried after a failure, by endpoint.\n# TYPE splash4d_peer_retries_total counter\n")
	for i, ep := range peernet.Endpoints {
		fmt.Fprintf(w, "splash4d_peer_retries_total{endpoint=%q} %d\n", ep, c.retries[i].v.Load())
	}

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("splash4d_jobs_stolen_total", "Jobs this node stole from peers and completed back to their owner.", c.stolenTotal.Load())
	counter("splash4d_steal_errors_total", "Steal or completion round trips that failed.", c.stealErrors.Load())
	counter("splash4d_forwarded_total", "Requests proxied to their owning node.", c.forwardedTotal.Load())
	counter("splash4d_forward_errors_total", "Forward hops that failed and fell back to local service.", c.forwardErrors.Load())
	counter("splash4d_journal_ship_rounds_total", "Successful journal fetches across all peers.", c.shipRounds.Load())
	counter("splash4d_journal_ship_errors_total", "Journal fetches that failed.", c.shipErrors.Load())
	counter("splash4d_journal_ship_skipped_total", "Shipped journal lines skipped as malformed.", c.skippedTotal())
	counter("splash4d_repair_bytes_total", "Journal bytes pulled by generation-change resyncs.", c.repairBytes.v.Load())
	counter("splash4d_journal_resyncs_total", "Replica resyncs forced by an origin journal generation change.", c.resyncs.v.Load())
	counter("splash4d_partition_heals_total", "Peers observed returning after a down period (down-to-up after first contact).", c.partitionHeals.v.Load())
}

// skippedTotal sums malformed-line skips across peers.
func (c *Cluster) skippedTotal() int64 {
	var n int64
	for _, p := range c.peers {
		n += p.skipped.Load()
	}
	return n
}

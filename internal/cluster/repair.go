package cluster

// Anti-entropy journal repair. The ship loop (ship.go) drains any backlog
// — boot, rejoin, partition heal — by itself, but ingests only while the
// origin's journal generation matches the replica's. After a generation
// change (the origin restarted, truncated or replaced its journal) the
// replica's records and byte offset describe a journal that no longer
// exists, and old offsets may point into the middle of different bytes:
// the repair pass drops the replica, rewinds to offset zero under the new
// generation, refetches, and wakes the ship loop to drain the rest.
//
// Repair traffic is visible: splash4d_journal_resyncs_total counts the
// resyncs, splash4d_repair_bytes_total the bytes of their first refetches.

// repairLoop runs the periodic anti-entropy pass over every peer.
//
//sync4:req SYNC4-CLUS-003 v3 MUST When a peer reopens its journal under a new generation, the anti-entropy repair pass drops the replica and resynchronizes it from offset zero; a backlog left by a healed partition is drained by the ship loop without waiting for ticks or for a repair pass. Either way every node's /compare census converges back to byte identity.
func (c *Cluster) repairLoop() {
	defer c.wg.Done()
	for c.sleep(c.cfg.RepairInterval) {
		for _, p := range c.peers {
			c.repairPeer(p)
		}
	}
}

// repairPeer resyncs one peer's replica when its journal generation changed.
func (c *Cluster) repairPeer(p *peer) {
	gen := p.gen.Load()
	synced := p.syncedGen.Load()
	if !p.up.Load() || gen == 0 || synced == 0 || gen == synced {
		return
	}
	// Hold syncMu across the reset and the first refetch so the ship
	// loop cannot interleave a fetch between the rewind and the first
	// chunk of the new generation.
	p.syncMu.Lock()
	p.replica.Reset()
	p.offset.Store(0)
	p.resetTail()
	p.skipped.Store(0)
	p.syncedGen.Store(gen)
	c.resyncs.v.Add(1)
	c.cfg.Logf("cluster: peer %s journal generation changed, resyncing replica from 0", p.id)
	n, err := c.fetchJournalLocked(p)
	p.syncMu.Unlock()
	if err == nil {
		c.repairBytes.v.Add(int64(n))
	}
	p.wakeShip()
}

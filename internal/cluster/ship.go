package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/cluster/peernet"
)

// Journal shipping: each node tails every peer's result journal into a
// local read-only resultstore.Index, so reads answer cluster-wide without
// a scatter-gather per query.
//
// The protocol is a byte-offset tail of an append-only file. The origin
// clamps reads to its durable watermark (bytes whose append was
// acknowledged), so a follower never sees a line the origin might not
// re-acknowledge after a crash. Every journal response also names the
// origin journal's generation (minted fresh at each store open), and a
// replica holds the bytes of one generation: the one that served its
// offset-zero fetch. A response naming another — origin restart,
// truncation, or journal replacement — was served for an offset whose
// meaning may have changed, so the follower discards it unread, drops the
// replica, rewinds to offset zero and drains the new generation from
// there (a resync). Two tolerances mirror the origin's own replay-on-open:
// a chunk boundary may split a line (buffered in p.tail until the rest
// arrives), and a torn fragment from an origin write fault may glue onto
// the next good line (skipped and counted by resultstore.Index.AddLine,
// the rule the origin's replay applies too — both sides converge on the
// same record set).
//
// One goroutine per peer, the ship loop, moves the replica, its offset,
// its tail and its generation, so none of them needs a lock; offset and
// skipped are atomics only because /metrics reads them.
//
// Pacing follows the work, not the clock. ShipInterval is only the idle
// poll of a caught-up replica: the loop also starts on a wake (the prober
// saw the peer come up), and while a fetch ingests bytes and leaves lag
// it asks for the next chunk at once. Anything that is not progress —
// caught up, an error, the peer down — goes back to the timer, so a
// failing peer sees one journal request per tick and call.go's breaker
// and budget arithmetic holds.

// shipLoop tails one peer's journal: wait for the tick or a wake, then
// drain.
//
//sync4:req SYNC4-CLUS-003 v4 MUST When a journal response names a generation other than the one the replica was built from, the ship loop discards that response, drops the replica, rewinds its offset and torn-line tail to zero and drains the new generation from offset zero in the same round; a backlog left by a healed partition is drained the same way, without waiting for ticks. Either way every node's /compare census converges back to byte identity.
//sync4:req SYNC4-CLUS-006 v4 MUST A follower whose fetch ingested bytes and still leaves ship lag fetches the next chunk without sleeping, and starts a round as soon as the prober sees the peer come up; a generation-mismatched fetch rewinds the replica and drains from offset zero, while an empty or failed fetch returns the loop to the ShipInterval timer, so a failing peer is asked for its journal at most once per tick.
func (c *Cluster) shipLoop(p *peer) {
	defer c.wg.Done()
	for c.sleepOrWake(c.cfg.ShipInterval, p.wake) {
		for p.up.Load() {
			n, err := c.fetchJournal(p)
			if err != nil {
				c.shipErrors.Add(1)
				break
			}
			c.shipRounds.Add(1)
			if n == 0 || p.shipLag() == 0 {
				break
			}
		}
	}
}

// wakeShip cuts the ship loop's idle wait short; a pending wake covers it.
func (p *peer) wakeShip() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// fetchJournal performs one tail round: fetch a chunk at the replica's
// offset, read the body straight into p.buf, fold complete lines in,
// advance. It returns the byte count ingested. A body that ends early
// (io.ErrUnexpectedEOF) still delivers a prefix of the journal, so its
// bytes are ingested; any other read error ingests nothing. Only the
// peer's ship loop calls it.
func (c *Cluster) fetchJournal(p *peer) (int, error) {
	off := p.offset.Load()
	resp, err := c.call(c.ctx, p, peernet.EndpointJournal, http.MethodGet,
		fmt.Sprintf("/peer/journal?offset=%d", off), nil, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.Status != http.StatusOK {
		return 0, fmt.Errorf("journal from %s: status %d", p.id, resp.Status)
	}
	if durable, err := strconv.ParseInt(resp.Header.Get(journalSizeHeader), 10, 64); err == nil {
		p.durable.Store(durable)
	}
	gen, _ := strconv.ParseUint(resp.Header.Get(journalGenHeader), 10, 64)
	switch {
	case off == 0:
		// Nothing is replicated yet, so the bytes about to be ingested
		// start the replica: they belong to this generation by
		// construction.
		p.syncedGen = gen
	case gen != p.syncedGen:
		// The origin reopened its journal since the replica was built,
		// and off may point into the middle of different bytes: close
		// this body unread, drop everything the old generation left, and
		// drain the new one from zero. The refetch, at offset zero, adopts
		// whatever generation serves it, so it never resyncs in turn.
		_ = resp.Body.Close()
		p.replica.Reset()
		p.tail = p.tail[:0]
		p.skipped.Store(0)
		p.offset.Store(0)
		c.resyncs.v.Add(1)
		c.cfg.Logf("cluster: peer %s journal generation changed, resyncing replica from 0", p.id)
		n, err := c.fetchJournal(p)
		if err == nil {
			c.repairBytes.v.Add(int64(n))
		}
		return n, err
	}
	if p.buf == nil {
		p.buf = make([]byte, journalChunk+1)
	}
	n, err := io.ReadFull(resp.Body, p.buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, err
	}
	body := p.buf[:n]
	if len(body) == 0 {
		return 0, nil // caught up
	}
	p.ingest(body)
	p.offset.Store(off + int64(len(body)))
	return len(body), nil
}

// ingest folds shipped bytes into the replica: complete lines parse into
// records, the trailing partial line waits in p.tail for the next chunk.
// Only the bytes that complete that line join it, so the tail stays one
// line long.
func (p *peer) ingest(chunk []byte) {
	for {
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			break
		}
		line := chunk[:i]
		if len(p.tail) > 0 {
			p.tail = append(p.tail, line...)
			line, p.tail = p.tail, p.tail[:0]
		}
		if p.replica.AddLine(line) {
			p.skipped.Add(1) // torn fragment glued to a good write; origin replay skips it too
		}
		chunk = chunk[i+1:]
	}
	p.tail = append(p.tail, chunk...)
}

// shipLag returns how many durable bytes of the peer's journal this node
// has not yet shipped. Probe data may momentarily lag the shipper, so the
// value clamps at zero.
func (p *peer) shipLag() int64 {
	lag := p.durable.Load() - p.offset.Load()
	if lag < 0 {
		return 0
	}
	return lag
}

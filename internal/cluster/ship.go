package cluster

import (
	"bytes"
	"errors"
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
// origin journal's generation (minted fresh at each store open): a
// follower ingests bytes only while the generation matches the one its
// replica was built from. On a mismatch — origin restart, truncation, or
// journal replacement — the shipper parks and the anti-entropy repair
// pass (repair.go) resyncs the replica from offset zero, which is the
// only safe response to offsets whose meaning may have changed. Two
// tolerances mirror the origin's own replay-on-open: a chunk boundary may
// split a line (buffered in p.tail until the rest arrives), and a torn
// fragment from an origin write fault may glue onto the next good line
// (skipped and counted by resultstore.Index.AddLine, the rule the origin's
// replay applies too — both sides converge on the same record set).
//
// Pacing follows the work, not the clock. ShipInterval is only the idle
// poll of a caught-up replica: the loop also starts on a wake (the prober
// saw the peer come up, or repair rewound the replica), and while a fetch
// ingests bytes and leaves lag it asks for the next chunk at once. Anything
// that is not progress — caught up, an error, a generation mismatch, the
// peer down — goes back to the timer, so a failing peer sees one journal
// request per tick and call.go's breaker and budget arithmetic holds.

// errGenerationChanged parks a fetch whose response named a different
// journal generation than the replica was built from.
var errGenerationChanged = errors.New("cluster: peer journal generation changed")

// shipLoop tails one peer's journal: wait for the tick or a wake, then
// drain, each chunk under its own syncMu hold so a resync can interleave.
//
//sync4:req SYNC4-CLUS-006 v3 MUST A follower whose fetch ingested bytes and still leaves ship lag fetches the next chunk without sleeping, and starts a round as soon as the prober sees the peer come up; an empty, failed or generation-mismatched fetch returns the loop to the ShipInterval timer, so a failing peer is asked for its journal at most once per tick.
func (c *Cluster) shipLoop(p *peer) {
	defer c.wg.Done()
	for c.sleepOrWake(c.cfg.ShipInterval, p.wake) {
		for p.up.Load() {
			n, err := c.fetchJournal(p)
			if err != nil {
				if !errors.Is(err, errGenerationChanged) {
					c.shipErrors.Add(1)
				}
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

// fetchJournal performs one serialized tail round: fetch a chunk at the
// replica's offset, fold complete lines in, advance. It returns the byte
// count ingested. The per-peer syncMu keeps concurrent pullers (the ship
// loop and a repair resync) from ingesting the same bytes twice.
func (c *Cluster) fetchJournal(p *peer) (int, error) {
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	return c.fetchJournalLocked(p)
}

// fetchJournalLocked is fetchJournal with p.syncMu already held.
func (c *Cluster) fetchJournalLocked(p *peer) (int, error) {
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
	if gen, err := strconv.ParseUint(resp.Header.Get(journalGenHeader), 10, 64); err == nil && gen != 0 {
		p.gen.Store(gen)
		synced := p.syncedGen.Load()
		switch {
		case synced == 0:
			// First contact: the bytes about to be ingested belong to this
			// generation by construction.
			p.syncedGen.Store(gen)
		case synced != gen:
			// The origin reopened its journal since the replica was built.
			// Ingesting would mix generations; park until repair resyncs.
			return 0, errGenerationChanged
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, journalChunk+1))
	if err != nil {
		return 0, err
	}
	if len(body) == 0 {
		return 0, nil // caught up
	}
	p.ingest(body)
	p.offset.Store(off + int64(len(body)))
	return len(body), nil
}

// ingest folds shipped bytes into the replica: complete lines parse into
// records, the trailing partial line waits in p.tail for the next chunk.
func (p *peer) ingest(chunk []byte) {
	p.tailMu.Lock()
	defer p.tailMu.Unlock()
	data := chunk
	if len(p.tail) > 0 {
		data = append(p.tail, chunk...)
	}
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		if p.replica.AddLine(data[:i]) {
			p.skipped.Add(1) // torn fragment glued to a good write; origin replay skips it too
		}
		data = data[i+1:]
	}
	p.tail = append(p.tail[:0], data...)
}

// resetTail drops a buffered torn line. Caller holds p.syncMu.
func (p *peer) resetTail() {
	p.tailMu.Lock()
	p.tail = p.tail[:0]
	p.tailMu.Unlock()
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

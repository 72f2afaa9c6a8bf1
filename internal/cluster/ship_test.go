package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/netfaulty"
	"repro/internal/cluster/peernet"
	"repro/internal/resultstore"
	"repro/internal/server"
)

func journalLine(t *testing.T, id string, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(resultstore.Record{
		ID: id, Workload: "fft", Kit: "lockfree", Threads: 2, Scale: "test",
		Seed: seed, Reps: 3, Node: "origin", Status: "ok",
		TimesNS: []int64{100, 110, 120}, MeanNS: 110,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestIngestBuffersTornTrailingLine(t *testing.T) {
	p := &peer{id: "origin", replica: resultstore.NewIndex()}
	line := journalLine(t, "r-origin-1", 1)
	cut := len(line) / 2

	p.ingest(line[:cut])
	if n := p.replica.Len(); n != 0 {
		t.Fatalf("replica holds %d records from half a line", n)
	}
	p.ingest(line[cut:])
	if n := p.replica.Len(); n != 1 {
		t.Fatalf("replica holds %d records after the line completed, want 1", n)
	}
	if _, ok := p.replica.ByID("r-origin-1"); !ok {
		t.Fatal("completed record not indexed by ID")
	}
	if got := p.skipped.Load(); got != 0 {
		t.Fatalf("skipped %d lines in a clean ship", got)
	}
}

func TestIngestSkipsTornFragmentLikeOriginReplay(t *testing.T) {
	p := &peer{id: "origin", replica: resultstore.NewIndex()}
	good := journalLine(t, "r-origin-2", 2)
	// A write fault tore a line: its tail glued onto the next good line's
	// start is undecodable and must be skipped — the origin's own
	// replay-on-open does the same, so both sides converge.
	torn := []byte(`{"id":"r-origin-1","workload":"f`)
	p.ingest(append(append(torn, '\n'), good...))

	if n := p.replica.Len(); n != 1 {
		t.Fatalf("replica holds %d records, want just the good line", n)
	}
	if got := p.skipped.Load(); got != 1 {
		t.Fatalf("skipped %d lines, want 1", got)
	}
	if _, ok := p.replica.ByID("r-origin-2"); !ok {
		t.Fatal("good record lost alongside the torn one")
	}
}

// fakeJournal serves an append-only journal byte range the way the peer
// API does: raw bytes from ?offset, clamped to the durable watermark.
type fakeJournal struct {
	mu      sync.Mutex
	data    []byte
	offsets []int64 // offsets requested, in order
}

func (f *fakeJournal) append(b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = append(f.data, b...)
}

func (f *fakeJournal) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.offsets = append(f.offsets, off)
		w.Header().Set(journalSizeHeader, fmt.Sprint(len(f.data)))
		if off > int64(len(f.data)) {
			off = int64(len(f.data))
		}
		w.Write(f.data[off:])
	})
}

func shippingCluster(t *testing.T) *Cluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	// Retries off: the test asserts exactly one journal fetch per ship
	// round.
	cfg := Config{Self: "follower", Logf: t.Logf, RetryMax: -1}
	return &Cluster{
		cfg:       cfg,
		transport: peernet.NewHTTPTransport(5 * time.Second),
		retries:   make([]padCounter, len(peernet.Endpoints)),
		ctx:       ctx,
	}
}

// testPeer builds a peer wired for direct c.call use: breaker and retry
// budget at defaults, replica empty.
func testPeer(id, base string) *peer {
	return &peer{
		id: id, base: base, replica: resultstore.NewIndex(),
		brk: newBreaker(0, 0, 0), budget: newRetryBudget(0, 0),
	}
}

func TestShipResumesFromOffsetAcrossOriginRestart(t *testing.T) {
	journal := &fakeJournal{}
	first := journalLine(t, "r-origin-1", 1)
	journal.append(first)
	ts := httptest.NewServer(journal.handler())
	p := testPeer("origin", ts.URL)
	c := shippingCluster(t)

	if _, err := c.fetchJournal(p); err != nil {
		t.Fatal(err)
	}
	if got := p.offset.Load(); got != int64(len(first)) {
		t.Fatalf("offset %d after first ship, want %d", got, len(first))
	}
	if lag := p.shipLag(); lag != 0 {
		t.Fatalf("lag %d on a caught-up follower", lag)
	}

	// Origin "crashes": its server goes away mid-ship. The follower's next
	// round errors but keeps its offset.
	ts.Close()
	if _, err := c.fetchJournal(p); err == nil {
		t.Fatal("shipping from a dead origin did not error")
	}
	if got := p.offset.Load(); got != int64(len(first)) {
		t.Fatalf("offset moved to %d across a failed ship", got)
	}

	// Origin restarts with the same journal plus one more line (same
	// listener address is not required — the follower just needs the same
	// byte stream). The resumed ship must ask for exactly the old offset
	// and ingest only the new line.
	second := journalLine(t, "r-origin-2", 2)
	journal.append(second)
	ts2 := httptest.NewServer(journal.handler())
	defer ts2.Close()
	p.base = ts2.URL
	journal.mu.Lock()
	journal.offsets = nil
	journal.mu.Unlock()

	if _, err := c.fetchJournal(p); err != nil {
		t.Fatal(err)
	}
	journal.mu.Lock()
	asked := append([]int64(nil), journal.offsets...)
	journal.mu.Unlock()
	if len(asked) != 1 || asked[0] != int64(len(first)) {
		t.Fatalf("resumed ship asked offsets %v, want exactly [%d]", asked, len(first))
	}
	if got := p.offset.Load(); got != int64(len(first)+len(second)) {
		t.Fatalf("offset %d after resume, want %d", got, len(first)+len(second))
	}
	if n := p.replica.Len(); n != 2 {
		t.Fatalf("replica holds %d records after resume, want 2", n)
	}
	for _, id := range []string{"r-origin-1", "r-origin-2"} {
		if _, ok := p.replica.ByID(id); !ok {
			t.Errorf("record %s missing after resume", id)
		}
	}
	if got := p.skipped.Load(); got != 0 {
		t.Fatalf("skipped %d lines across a clean resume", got)
	}
}

// backlogRecords is how many preloadBacklog records make a journal of at
// least five journalChunk-sized fetches (each line is ~24 KiB).
const backlogRecords = 64

// preloadBacklog appends backlogRecords bulky records to an origin's store
// and returns the journal's durable size.
func preloadBacklog(t *testing.T, store *resultstore.Store, node string) int64 {
	t.Helper()
	times := make([]int64, 3000)
	for i := range times {
		times[i] = 1_000_000 + int64(i)
	}
	for i := 0; i < backlogRecords; i++ {
		err := store.Append(resultstore.Record{
			ID: fmt.Sprintf("pre-%s-%03d", node, i), Workload: "fft", Kit: "lockfree", Threads: 2,
			Scale: "test", Seed: int64(i), Reps: len(times), Node: node, Status: "ok", TimesNS: times,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	size := store.DurableSize()
	if size < 4*journalChunk {
		t.Fatalf("backlog is %d bytes, want more than four %d-byte chunks", size, journalChunk)
	}
	return size
}

// TestShipDrainsBacklogWithoutWaitingForTicks boots a follower beside an
// origin whose journal is several chunks long, with the ship tick an hour
// away: only the prober's wake on first contact can start the tail, and
// only a drain that does not sleep between chunks can finish it.
//
//sync4:covers SYNC4-CLUS-006
func TestShipDrainsBacklogWithoutWaitingForTicks(t *testing.T) {
	var size int64
	nodes := startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		ccfg.ShipInterval = time.Hour
		if id == "a" {
			size = preloadBacklog(t, scfg.Store, id)
		}
	})
	b := nodes["b"]
	p := b.cl.peers["a"]
	waitWithin(t, 2*time.Second, "b never replicated a's preloaded journal without a ship tick", func() bool {
		return p.replica.Len() == backlogRecords && p.offset.Load() == size && p.shipLag() == 0
	})
	if rounds := b.cl.shipRounds.Load(); rounds < size/journalChunk {
		t.Fatalf("%d bytes arrived in %d fetches; the journal endpoint caps one at %d", size, rounds, journalChunk)
	}
	if got := b.cl.repairBytes.v.Load(); got != 0 {
		t.Fatalf("a resync pulled %d bytes of a plain backlog", got)
	}
}

// TestShipResumesOnHealWithoutRepairPass cuts b off from a, grows a's
// journal by several chunks behind the partition and heals it, again with
// the tick an hour away: the prober's down-to-up transition must restart
// the tail, and draining the backlog must cost no resync and no repair
// bytes.
//
//sync4:covers SYNC4-CLUS-003
//sync4:covers SYNC4-CLUS-006
func TestShipResumesOnHealWithoutRepairPass(t *testing.T) {
	var bFaults *netfaulty.Transport
	nodes := startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		ccfg.ShipInterval = time.Hour
		if id == "b" {
			bFaults = netfaulty.New(peernet.NewHTTPTransport(ccfg.HTTPTimeout))
			ccfg.Transport = bFaults
		}
	})
	a, b := nodes["a"], nodes["b"]
	p := b.cl.peers["a"]

	bFaults.Partition("a")
	waitFor(t, "b never saw a down through the partition", func() bool { return !p.up.Load() })
	size := preloadBacklog(t, a.srv.Store(), "a")
	if got := p.offset.Load(); got != 0 {
		t.Fatalf("b shipped %d bytes through the partition", got)
	}
	bFaults.Heal("a")

	waitWithin(t, 2*time.Second, "b never caught up on a's journal after the heal", func() bool {
		return p.replica.Len() == backlogRecords && p.offset.Load() == size && p.shipLag() == 0
	})
	if !reflect.DeepEqual(p.replica.All(), a.srv.Store().All()) {
		t.Fatal("b's replica of a differs from a's own record set")
	}
	if heals := b.cl.partitionHeals.v.Load(); heals != 1 {
		t.Fatalf("b counted %d partition heals, want 1", heals)
	}
	if bytes, resyncs := b.cl.repairBytes.v.Load(), b.cl.resyncs.v.Load(); bytes != 0 || resyncs != 0 {
		t.Fatalf("the heal cost %d repair bytes and %d resyncs, want a plain drain", bytes, resyncs)
	}
}

// shipOnly builds a real Cluster around an idle server with one peer,
// "origin", already up, whose journal endpoint is h. No loop runs until the
// test starts the peer's ship loop with shipLoopOf. Retries are off so one
// fetch is one request.
func shipOnly(t *testing.T, tick time.Duration, h http.Handler) (*Cluster, *peer) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "follower.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store, NodeID: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	c, err := New(Config{Self: "follower", Peers: map[string]string{"origin": ts.URL}, Server: srv,
		ShipInterval: tick, RetryMax: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p := c.peers["origin"]
	p.up.Store(true)
	t.Cleanup(c.Stop)
	return c, p
}

// shipLoopOf runs p's ship loop the way Start does; c.Stop ends it.
func shipLoopOf(c *Cluster, p *peer) {
	c.wg.Add(1)
	go c.shipLoop(p)
}

// TestShipFailingPeerIsPolledOncePerTick is the other half of the pacing
// contract: a fetch that made no progress goes back to the timer, even
// while the origin advertises lag. Timer fires cannot outnumber
// elapsed/tick, so neither may journal requests nor counted errors (an
// open breaker refuses locally, which a hot loop would show only in the
// latter). A failed fetch is counted as a ship error and moves nothing.
//
//sync4:covers SYNC4-CLUS-006
func TestShipFailingPeerIsPolledOncePerTick(t *testing.T) {
	const tick = 20 * time.Millisecond
	line := journalLine(t, "r-origin-1", 1)
	cases := []struct {
		name   string
		fails  bool
		answer func(w http.ResponseWriter)
	}{
		{"status 500", true, func(w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) }},
		{"empty body", false, func(w http.ResponseWriter) { w.Header().Set(journalSizeHeader, "1000000") }},
		{"body fails mid-read", true, func(w http.ResponseWriter) { tearJournal(w, line, len(line)/2, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int64
			c, p := shipOnly(t, tick, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				tc.answer(w)
			}))
			start := time.Now()
			shipLoopOf(c, p)
			waitFor(t, "the ship loop never polled", func() bool { return requests.Load() >= 2 })
			time.Sleep(10 * tick)
			got, errs := requests.Load(), c.shipErrors.Load()
			ticks := int64(time.Since(start) / tick)
			if got > ticks+1 || errs > ticks+1 {
				t.Fatalf("%d journal requests and %d ship errors in %d ticks: the loop is not waiting for the timer", got, errs, ticks)
			}
			if tc.fails && errs == 0 {
				t.Fatal("no ship error counted for failing fetches")
			}
			if n, off := p.replica.Len(), p.offset.Load(); n != 0 || off != 0 {
				t.Fatalf("replica ingested %d records and moved to offset %d from a failing origin", n, off)
			}
		})
	}
}

// TestShipResyncsOnGenerationChange reopens the origin's journal under the
// follower. Generation 1 holds six records; the follower has shipped one
// chunk of it, so its offset is mid-line and a torn line waits in its tail.
// Generation 2 is a shorter journal of other records, yet longer than that
// offset, so the response that first names it carries bytes from the middle
// of a generation-2 line. One drain, with the tick an hour away, must
// discard that response, drop the replica, its tail and its offset, and
// drain generation 2 from offset zero.
//
//sync4:covers SYNC4-CLUS-003
func TestShipResyncsOnGenerationChange(t *testing.T) {
	type journal struct {
		gen   uint64
		data  []byte
		index *resultstore.Index // the record set the data replays to
	}
	build := func(gen uint64, records int) *journal {
		j := &journal{gen: gen, index: resultstore.NewIndex()}
		for i := 1; i <= records; i++ {
			line := journalLine(t, fmt.Sprintf("r-g%d-%d", gen, i), int64(i))
			j.data = append(j.data, line...)
			j.index.AddLine(line[:len(line)-1])
		}
		return j
	}
	g1, g2 := build(1, 6), build(2, 4)
	// Each response carries at most two and a half lines, so chunk
	// boundaries split lines.
	chunk := int64(len(journalLine(t, "r-g1-1", 1))) * 5 / 2
	type response struct{ gen, off, n int64 }
	var (
		serving atomic.Pointer[journal]
		mu      sync.Mutex
		served  []response
	)
	serving.Store(g1)
	c, p := shipOnly(t, time.Hour, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		j := serving.Load()
		size := int64(len(j.data))
		off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
		off = min(off, size)
		end := min(off+chunk, size)
		w.Header().Set(journalSizeHeader, fmt.Sprint(size))
		w.Header().Set(journalGenHeader, fmt.Sprint(j.gen))
		w.Write(j.data[off:end])
		mu.Lock()
		served = append(served, response{int64(j.gen), off, end - off})
		mu.Unlock()
	}))

	// Ship generation 1's first chunk before the loop runs.
	if n, err := c.fetchJournal(p); err != nil || int64(n) != chunk {
		t.Fatalf("first fetch of generation 1: %d bytes, %v; want %d", n, err, chunk)
	}
	if p.replica.Len() != 2 || len(p.tail) == 0 {
		t.Fatalf("after one chunk the replica holds %d records and a %d-byte tail, want 2 and a torn line", p.replica.Len(), len(p.tail))
	}

	serving.Store(g2)
	mu.Lock()
	switched := len(served)
	mu.Unlock()
	shipLoopOf(c, p)
	p.wakeShip()
	size := int64(len(g2.data))
	waitFor(t, "the follower never drained generation 2", func() bool {
		return p.offset.Load() == size && p.shipLag() == 0
	})

	if got, want := p.replica.All(), g2.index.All(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica after the resync:\n%+v\nwant generation 2's record set:\n%+v", got, want)
	}
	if got := p.skipped.Load(); got != 0 {
		t.Fatalf("skipped %d malformed lines: generation-1 bytes reached the replica after the switch", got)
	}
	if got := c.resyncs.v.Load(); got != 1 {
		t.Fatalf("%d resyncs, want 1", got)
	}
	mu.Lock()
	after := append([]response(nil), served[switched:]...)
	mu.Unlock()
	// The first response after the switch names generation 2 at generation
	// 1's offset; the second is the first fetch after the rewind.
	if len(after) < 2 || after[0].off != chunk || after[0].n == 0 || after[1].off != 0 {
		t.Fatalf("responses after the switch %+v, want one at offset %d carrying bytes, then the rewind to 0", after, chunk)
	}
	if got := c.repairBytes.v.Load(); got != after[1].n {
		t.Fatalf("repair bytes %d, want the %d bytes of the first fetch after the rewind", got, after[1].n)
	}
}

// TestShipStopsMidDrain puts the ship loop into a drain that never ends by
// itself — every fetch ingests a line and leaves lag, and the tick is an
// hour away, so every line after the first is the drain's — and requires
// Stop and Kill to end it within the exchange in flight: the origin serves
// at most one journal request once the cluster's context is cancelled, and
// the replica's offset stays put after the loop is gone. Stop waits for the
// loop's goroutine, so returning at all proves the goroutine is gone.
func TestShipStopsMidDrain(t *testing.T) {
	line := journalLine(t, "r-origin-1", 1)
	stops := map[string]func(c *Cluster){
		"Stop": (*Cluster).Stop,
		"Kill": func(c *Cluster) {
			c.Kill()
			c.wg.Wait()
		},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			var follower atomic.Pointer[Cluster]
			var lateRequests atomic.Int64 // served after the cancel
			c, p := shipOnly(t, time.Hour, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c := follower.Load(); c != nil && c.ctx.Err() != nil {
					lateRequests.Add(1)
				}
				off, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
				w.Header().Set(journalSizeHeader, fmt.Sprint(off+2*int64(len(line))))
				w.Write(line)
			}))
			follower.Store(c)
			shipLoopOf(c, p)
			p.wakeShip()
			waitFor(t, "the drain never got going", func() bool { return p.offset.Load() >= 3*int64(len(line)) })
			stopped := make(chan struct{})
			go func() {
				stop(c)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("the ship loop outlived its cluster")
			}
			if n := lateRequests.Load(); n > 1 {
				t.Fatalf("the origin served %d journal requests after the cancel, want the drain to end with the exchange in flight", n)
			}
			after := p.offset.Load()
			time.Sleep(20 * time.Millisecond)
			if late := p.offset.Load(); late != after {
				t.Fatalf("offset moved %d bytes after the loop was stopped", late-after)
			}
		})
	}
}

// TestPeerJournalSizesItsBufferToTheBytesOnOffer: the origin side used to
// allocate a full journalChunk for every poll, including the caught-up
// ones that are all an idle cluster ever sends.
func TestPeerJournalSizesItsBufferToTheBytesOnOffer(t *testing.T) {
	c, _ := shipOnly(t, time.Hour, http.NotFoundHandler())
	store := c.srv.Store()
	size := preloadBacklog(t, store, "follower")
	journal := make([]byte, size)
	if n, _, err := store.ReadJournal(journal, 0); err != nil || int64(n) != size {
		t.Fatalf("reading the whole journal: %d of %d bytes, %v", n, size, err)
	}
	poll := func(off int64) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		c.handlePeerJournal(w, &http.Request{Method: http.MethodGet, URL: &url.URL{RawQuery: fmt.Sprintf("offset=%d", off)}})
		if w.Code != http.StatusOK {
			t.Fatalf("poll at %d: status %d", off, w.Code)
		}
		if got := w.Header().Get(journalSizeHeader); got != fmt.Sprint(size) {
			t.Fatalf("poll at %d advertises size %q, want %d", off, got, size)
		}
		if got := w.Header().Get(journalGenHeader); got != fmt.Sprint(store.Generation()) {
			t.Fatalf("poll at %d advertises generation %q, want %d", off, got, store.Generation())
		}
		return w
	}
	for _, tc := range []struct{ off, want int64 }{
		{0, journalChunk}, {journalChunk + 7, journalChunk}, {size - 1000, 1000}, {size, 0}, {size + 5, 0},
	} {
		body, _ := io.ReadAll(poll(tc.off).Body)
		if int64(len(body)) != tc.want {
			t.Fatalf("poll at %d of %d returned %d bytes, want %d", tc.off, size, len(body), tc.want)
		}
		if tc.want > 0 && !bytes.Equal(body, journal[tc.off:tc.off+tc.want]) {
			t.Fatalf("poll at %d returned bytes that are not the journal's", tc.off)
		}
	}
	const polls = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < polls; i++ {
		poll(size)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / polls; per >= 4<<10 {
		t.Fatalf("a caught-up poll allocates %d bytes, want under 4 KiB", per)
	}
}

// tearJournal answers a /peer/journal request with a 200 that advertises
// lag and fails after the first cut bytes of body. With eof the connection
// closes short of the declared Content-Length, which the follower reads as
// io.ErrUnexpectedEOF; otherwise a well-formed chunk of a chunked body is
// followed by a malformed one, any other read error.
func tearJournal(w http.ResponseWriter, body []byte, cut int, eof bool) {
	conn, buf, err := w.(http.Hijacker).Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	if eof {
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n%s: 1000000\r\n\r\n%s",
			len(body), journalSizeHeader, body[:cut])
	} else {
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n%s: 1000000\r\n\r\n%x\r\n%s\r\nzz\r\n",
			journalSizeHeader, cut, body[:cut])
	}
	buf.Flush()
}

// TestShipTornBody: a /peer/journal body that fails mid-stream fails after
// call has returned, so only fetchJournal sees it. A body cut short still
// delivered a prefix of the journal: its bytes are ingested, the torn line
// waits in the tail, and the offset advances by exactly them. Any other
// read error ingests nothing and leaves the offset where it was (the ship
// loop's side is TestShipFailingPeerIsPolledOncePerTick's torn-body case).
func TestShipTornBody(t *testing.T) {
	first, second := journalLine(t, "r-origin-1", 1), journalLine(t, "r-origin-2", 2)
	body := append(append([]byte(nil), first...), second...)
	cut := len(first) + len(second)/2
	for _, eof := range []bool{true, false} {
		c, p := shipOnly(t, time.Hour, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tearJournal(w, body, cut, eof)
		}))
		n, err := c.fetchJournal(p)
		want, records, tail := cut, 1, cut-len(first)
		if !eof {
			want, records, tail = 0, 0, 0
			if err == nil {
				t.Fatal("a body with a malformed chunk fetched without error")
			}
		} else if err != nil {
			t.Fatalf("a body cut at %d: %v", cut, err)
		}
		if n != want || p.offset.Load() != int64(want) || p.replica.Len() != records || len(p.tail) != tail {
			t.Fatalf("eof=%v: fetched %d bytes to offset %d, %d records, a %d-byte tail; want %d, %d, %d, %d",
				eof, n, p.offset.Load(), p.replica.Len(), len(p.tail), want, want, records, tail)
		}
	}
}

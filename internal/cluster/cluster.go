// Package cluster shards splash4d across nodes: rendezvous-hash routing of
// job specs to their owning node, lock-free work stealing of queued jobs
// between peers, and journal shipping so every node answers read queries
// (/compare, /jobs) over the whole cluster's results.
//
// A cluster node is an ordinary single-node splash4d (internal/server) with
// three additions layered on from the outside — the server never imports
// this package:
//
//   - Routing: Handler wraps the server's API. POST /runs picks the
//     normalized spec key's owner by rendezvous hashing over the healthy
//     nodes and forwards to it;
//     GET /runs/{id} routes by the node name embedded in the job ID.
//     X-Request-ID propagates across the hop and a hop-guard header stops
//     forwarding loops.
//
//   - Work stealing: an idle node pulls queued jobs from the busiest
//     healthy peer (POST /peer/steal). Donated jobs come off the victim's
//     lock-free admission ring through the same TryGet the local workers
//     use; the thief executes the spec on its own engine and ships the
//     outcome back (POST /peer/complete), and the victim journals it — one
//     journal line per job, always on its owner. A thief that dies is
//     handled by reclaim: deadline-based sweeps plus immediate reclaim when
//     a peer's health flips down.
//
//   - Journal shipping: each node tails every peer's result journal
//     (GET /peer/journal, offset-resumable raw bytes clamped to the peer's
//     durable watermark) into a local read-only resultstore.Index. Reads
//     pool local + replicated data in canonical node-ID order, so a
//     caught-up cluster answers /compare byte-identically from any node.
//
// See docs/CLUSTER.md for the operations view.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/peernet"
	"repro/internal/resultstore"
	"repro/internal/server"
)

// Config wires one cluster node.
type Config struct {
	// Self is this node's ID; must equal the server's Config.NodeID.
	Self string
	// Peers maps every other node's ID to its base URL
	// ("http://127.0.0.1:7101"). Routing hashes over Self + Peers.
	Peers map[string]string
	// Server is the local daemon the cluster layer wraps. Required.
	Server *server.Server
	// HealthInterval paces peer health probes. Default 500ms.
	HealthInterval time.Duration
	// ShipInterval is the idle poll period of each peer's journal tail, i.e.
	// the worst-case staleness of a caught-up replica; a backlog never waits
	// for it. Default 250ms.
	ShipInterval time.Duration
	// StealInterval paces the work stealer's idle check only. Default 250ms.
	StealInterval time.Duration
	// StealBatch caps jobs taken per steal request. Default 2.
	StealBatch int
	// ReclaimAfter is how long a donated job's outcome may be owed before
	// the deadline sweep takes it back. Default 30s. (A peer that dies is
	// reclaimed from immediately, off its health transition.)
	ReclaimAfter time.Duration
	// HTTPTimeout bounds one peer HTTP exchange (except steal execution,
	// which runs under the job budget). Default 10s.
	HTTPTimeout time.Duration
	// Transport performs peer exchanges. Nil takes the production HTTP
	// transport; tests substitute one that netfaulty's directed
	// partition and latency rules decorate.
	Transport peernet.PeerTransport
	// BreakerCooldown is how long an open breaker refuses exchanges before
	// admitting a half-open trial. Default 2s.
	BreakerCooldown time.Duration
	// RetryMax caps retries per exchange beyond the first attempt, on
	// idempotent endpoints only. Default 2; negative disables retries.
	RetryMax int
	// RetryBaseDelay is the first backoff step; later steps double, with
	// deterministic jitter. Default 25ms.
	RetryBaseDelay time.Duration
	// Logf, when set, receives cluster lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Config.Self is required")
	}
	if c.Server == nil {
		return fmt.Errorf("cluster: Config.Server is required")
	}
	if got := c.Server.NodeID(); got != c.Self {
		return fmt.Errorf("cluster: server NodeID %q != cluster Self %q", got, c.Self)
	}
	if _, clash := c.Peers[c.Self]; clash {
		return fmt.Errorf("cluster: Peers must not contain Self (%q)", c.Self)
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.ShipInterval <= 0 {
		c.ShipInterval = 250 * time.Millisecond
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 250 * time.Millisecond
	}
	if c.StealBatch <= 0 {
		c.StealBatch = 2
	}
	if c.ReclaimAfter <= 0 {
		c.ReclaimAfter = 30 * time.Second
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 10 * time.Second
	}
	if c.Transport == nil {
		c.Transport = peernet.NewHTTPTransport(c.HTTPTimeout)
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 25 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// peer is one remote node as this node sees it: liveness and queue depth
// from the health prober, plus the shipped replica of its result journal.
// Shared fields are atomics — the prober, shipper, stealer, router, and
// metrics writer all read them concurrently.
type peer struct {
	id   string
	base string

	// The prober writes up and queueDepth while the router and stealer
	// poll them, and the shipper advances offset/durable/skipped on yet
	// another goroutine while /metrics reads. One cache line per atomic
	// keeps each writer off the others' lines.
	up         atomic.Bool
	_          [63]byte
	everUp     atomic.Bool // saw at least one up probe; gates heal counting
	_          [63]byte
	queueDepth atomic.Int64
	_          [56]byte

	// Journal replica: shipped bytes become records in replica; offset is
	// the next byte to fetch, durable the origin's last-advertised durable
	// size (lag = durable − offset), skipped counts malformed lines.
	replica *resultstore.Index
	offset  atomic.Int64
	_       [56]byte
	durable atomic.Int64
	_       [56]byte
	skipped atomic.Int64
	_       [56]byte

	// brk and budget are this peer's circuit breaker and retry bucket.
	brk    *breaker
	budget *retryBudget
	wake   chan struct{} // one slot: starts a ship round ahead of the tick (wakeShip)

	// Only the ship loop touches these (see ship.go): syncedGen is the
	// journal generation the replica's bytes belong to, tail a torn
	// trailing line buffered between ship rounds, buf the journalChunk+1
	// bytes every fetch reads its body into.
	syncedGen uint64
	tail      []byte
	buf       []byte
}

// padCounter is one cache-line-isolated counter for the per-endpoint
// metric arrays.
type padCounter struct {
	v atomic.Int64
	_ [56]byte
}

// Cluster is one node's cluster layer. Create with New, start with Start,
// stop with Stop.
type Cluster struct {
	cfg       Config
	srv       *server.Server
	peers     map[string]*peer // by ID
	order     []string         // all node IDs incl. self, sorted
	transport peernet.PeerTransport

	// Thief-side flow counters (the victim side lives in the server),
	// bumped by the stealer, router, and shippers from different
	// goroutines while /metrics reads — one cache line each.
	stolenTotal    atomic.Int64 // jobs this node stole and executed
	_              [56]byte
	stealErrors    atomic.Int64
	_              [56]byte
	forwardedTotal atomic.Int64 // requests proxied to their owner
	_              [56]byte
	forwardErrors  atomic.Int64
	_              [56]byte
	shipRounds     atomic.Int64
	_              [56]byte
	shipErrors     atomic.Int64
	_              [56]byte

	// Robustness counters: retries per endpoint (peernet.Endpoints
	// order), replica resyncs and the bytes of their first refetches, and
	// partition heals observed by the prober.
	retries        []padCounter // one slot per peernet.Endpoints entry
	repairBytes    padCounter
	resyncs        padCounter
	partitionHeals padCounter
	// jitterSeq drives deterministic backoff jitter.
	jitterSeq atomic.Uint64
	_         [56]byte

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// killed simulates abrupt process death (see Kill).
	killed atomic.Bool
}

// New builds the cluster layer around cfg.Server and installs the read
// hooks (pooled /compare samples, replicated /jobs, cluster metrics).
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:       cfg,
		srv:       cfg.Server,
		peers:     make(map[string]*peer, len(cfg.Peers)),
		transport: cfg.Transport,
		retries:   make([]padCounter, len(peernet.Endpoints)),
		ctx:       ctx,
		cancel:    cancel,
	}
	nodes := []string{cfg.Self}
	for id, base := range cfg.Peers {
		c.peers[id] = &peer{
			id: id, base: base, replica: resultstore.NewIndex(), wake: make(chan struct{}, 1),
			brk:    newBreaker(breakerWindow, breakerMinSamples, cfg.BreakerCooldown),
			budget: newRetryBudget(retryBurst, retryRefill),
		}
		nodes = append(nodes, id)
	}
	sort.Strings(nodes)
	c.order = nodes
	c.srv.SetClusterHooks(&server.ClusterHooks{
		Times:   c.pooledTimes,
		Records: c.replicaRecords,
		Metrics: c.writeMetrics,
	})
	return c, nil
}

// Start launches the background loops: one health prober and one journal
// shipper per peer, one work stealer, one reclaim sweeper.
func (c *Cluster) Start() {
	for _, p := range c.peers {
		c.wg.Add(2)
		go c.probeLoop(p)
		go c.shipLoop(p)
	}
	c.wg.Add(2)
	go c.stealLoop()
	go c.reclaimLoop()
	c.cfg.Logf("cluster: node %s up, nodes %v", c.cfg.Self, c.order)
}

// Stop ends the background loops and waits for them. The wrapped server's
// own Drain/Close is the caller's job (stop the cluster first so no loop
// donates or ships against a draining server).
func (c *Cluster) Stop() {
	c.cancel()
	c.wg.Wait()
	c.srv.SetClusterHooks(nil)
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.cfg.Self }

// Kill simulates abrupt process death for fault-injection tests:
// background loops stop without handoff and any stolen job
// still executing drops its completion instead of shipping it — exactly
// what a crashed thief looks like to its victims, whose health probes and
// reclaim then take over. The caller closes the node's listener itself.
func (c *Cluster) Kill() {
	c.killed.Store(true)
	c.cancel()
}

// sleep waits d or until Stop, reporting false on Stop.
func (c *Cluster) sleep(d time.Duration) bool { return c.sleepOrWake(d, nil) }

// sleepOrWake is sleep that a signal on wake cuts short (nil never does).
func (c *Cluster) sleepOrWake(d time.Duration, wake <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.ctx.Done():
	case <-t.C:
	case <-wake:
	}
	return c.ctx.Err() == nil
}

// healthyNodes returns the node IDs currently routable: self plus every
// peer whose last probe succeeded, sorted.
func (c *Cluster) healthyNodes() []string {
	nodes := make([]string, 0, len(c.order))
	for _, id := range c.order {
		if id == c.cfg.Self || c.peers[id].up.Load() {
			nodes = append(nodes, id)
		}
	}
	return nodes
}

// routeOwner resolves the node that should admit a spec with the given
// routing key right now: the rendezvous choice among the healthy nodes.
// Self is always among them (a node serving requests is evidence enough of
// its own liveness), so there always is one.
func (c *Cluster) routeOwner(key string) string {
	return rendezvous(key, c.healthyNodes())
}

// pooledTimes is the ClusterHooks.Times implementation: one population's
// repetition times pooled across every node in canonical order — node IDs
// ascending, journal order within each node. Every caught-up node computes
// the identical slice, which is what makes /compare byte-identical
// cluster-wide.
func (c *Cluster) pooledTimes(k resultstore.Key) []int64 {
	var out []int64
	for _, id := range c.order {
		if id == c.cfg.Self {
			out = append(out, c.srv.Store().TimesNS(k)...)
			continue
		}
		out = append(out, c.peers[id].replica.TimesNS(k)...)
	}
	return out
}

// replicaRecords is the ClusterHooks.Records implementation: every
// replicated peer record, node IDs ascending.
func (c *Cluster) replicaRecords() []resultstore.Record {
	var out []resultstore.Record
	for _, id := range c.order {
		if id == c.cfg.Self {
			continue
		}
		out = append(out, c.peers[id].replica.All()...)
	}
	return out
}

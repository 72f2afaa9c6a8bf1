package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// testGate holds a node's workloads in flight on demand: arm makes every
// subsequent Run block until release. The zero value is open, and a gate
// can be re-armed after a release.
type testGate struct {
	mu sync.Mutex
	ch chan struct{}
}

func (g *testGate) arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
}

func (g *testGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
}

func (g *testGate) wait() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// testBench is the resolver-injected workload every test node runs: instant
// unless its node's gate is armed. Cluster tests need controllable job
// timing, not real kernels.
type testBench struct {
	name string
	gate *testGate
}

func (b *testBench) Name() string        { return b.name }
func (b *testBench) Description() string { return "cluster test bench" }
func (b *testBench) Prepare(core.Config) (core.Instance, error) {
	return testInstance{b: b}, nil
}

type testInstance struct{ b *testBench }

func (i testInstance) Run() error {
	i.b.gate.wait()
	return nil
}
func (i testInstance) Verify() error { return nil }

// testNode is one in-process cluster node on a loopback listener. gate
// holds the node's workloads in flight; the remaining unexported fields are
// what start needs to bring the node up (again) in place.
type testNode struct {
	id   string
	base string
	gate testGate
	srv  *server.Server
	cl   *Cluster

	journal string
	peers   map[string]string
	tweak   func(id string, scfg *server.Config, ccfg *Config)
	store   *resultstore.Store
	hs      *http.Server
}

// start opens the node's journal and serves a fresh server and cluster
// layer on ln. startTestCluster calls it once per node; calling it again
// after stop restarts the node in place over the same journal, which the
// fresh store open makes a new journal generation.
func (n *testNode) start(t *testing.T, ln net.Listener) {
	t.Helper()
	store, err := resultstore.Open(n.journal)
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{
		Store:  store,
		NodeID: n.id,
		Resolver: func(name string) (core.Benchmark, error) {
			return &testBench{name: name, gate: &n.gate}, nil
		},
		Workers:    2,
		JobTimeout: 30 * time.Second,
	}
	ccfg := Config{
		Self:           n.id,
		Peers:          n.peers,
		HealthInterval: 20 * time.Millisecond,
		ShipInterval:   10 * time.Millisecond,
		StealInterval:  10 * time.Millisecond,
		StealBatch:     4,
		ReclaimAfter:   10 * time.Second,
		HTTPTimeout:    5 * time.Second,
		Logf:           t.Logf,
	}
	if n.tweak != nil {
		n.tweak(n.id, &scfg, &ccfg)
	}
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Server = srv
	cl, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	n.store, n.srv, n.cl = store, srv, cl
	n.hs = &http.Server{Handler: cl.Handler()}
	go n.hs.Serve(ln)
	cl.Start()
}

// kill crashes the node: its cluster loops die without handoff (a stolen
// job mid-execution drops its completion) and its listener closes, so to
// its peers it looks exactly like a dead process. stop still cleans up.
func (n *testNode) kill() {
	n.cl.Kill()
	n.hs.Close()
}

// stop shuts the node down; safe to call twice and after kill.
func (n *testNode) stop() {
	n.gate.release() // a failing test must not hang the drain on held workers
	n.cl.Stop()
	n.hs.Close()
	// A deadline, not Close: on a failing test jobs may still be out on loan
	// to an unreachable thief, and only a forced drain fails those locally
	// instead of waiting forever.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	n.srv.Drain(ctx)
	cancel()
	n.store.Close()
}

// startTestCluster brings up one node per ID, fully meshed on loopback,
// with fast background intervals. tweak (optional) adjusts each node's
// server and cluster configs before construction.
func startTestCluster(t *testing.T, ids []string, tweak func(id string, scfg *server.Config, ccfg *Config)) map[string]*testNode {
	t.Helper()
	dir := t.TempDir()
	nodes := make(map[string]*testNode, len(ids))
	listeners := make(map[string]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		nodes[id] = &testNode{id: id, base: "http://" + ln.Addr().String(),
			journal: filepath.Join(dir, id+".jsonl"), tweak: tweak}
	}
	for _, id := range ids {
		n := nodes[id]
		n.peers = make(map[string]string, len(ids)-1)
		for _, other := range ids {
			if other != id {
				n.peers[other] = nodes[other].base
			}
		}
		n.start(t, listeners[id])
		t.Cleanup(n.stop)
	}
	// Routing and stealing are meaningless until the mesh sees itself up.
	for _, n := range nodes {
		waitFor(t, "node "+n.id+" never saw the full mesh healthy", func() bool {
			return len(n.cl.healthyNodes()) == len(ids)
		})
	}
	return nodes
}

// waitFor polls cond until it holds, failing the test with msg after 10 s.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	waitWithin(t, 10*time.Second, msg, cond)
}

// waitWithin is waitFor with the caller's own deadline.
func waitWithin(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitReplication waits until each given node's replica of every other
// given node's journal holds exactly that node's record census, with zero
// ship lag.
func awaitReplication(t *testing.T, nodes ...*testNode) {
	t.Helper()
	for _, n := range nodes {
		for _, origin := range nodes {
			if origin == n {
				continue
			}
			p := n.cl.peers[origin.id]
			waitFor(t, fmt.Sprintf("node %s never caught up on %s's journal", n.id, origin.id), func() bool {
				return p.replica.Len() == len(origin.srv.Store().All()) && p.shipLag() == 0
			})
		}
	}
}

// getBody fetches url from a test node and returns the 200 response's body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, raw)
	}
	return raw
}

// compareIdentical asserts one fixed bootstrap query answers byte-for-byte
// identically, and non-empty, from every given node, replicas included.
func compareIdentical(t *testing.T, nodes ...*testNode) {
	t.Helper()
	const query = "/compare?workload=fft&threads=2&scale=test&seed=7&resamples=300"
	want := getBody(t, nodes[0].base+query)
	if len(want) == 0 {
		t.Fatal("empty compare body")
	}
	for _, n := range nodes[1:] {
		if raw := getBody(t, n.base+query); !bytes.Equal(raw, want) {
			t.Fatalf("compare diverges between nodes:\n%s: %s\n%s: %s", nodes[0].id, want, n.id, raw)
		}
	}
}

// metricValue scrapes one node's /metrics and returns the named sample.
func metricValue(t *testing.T, n *testNode, name string, labels map[string]string) float64 {
	t.Helper()
	m, err := promtext.Parse(string(getBody(t, n.base+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Value(name, labels)
	if !ok {
		t.Fatalf("%s's /metrics has no %s%v", n.id, name, labels)
	}
	return v
}

func specBody(workload, kit string, seed int64) string {
	return fmt.Sprintf(`{"workload":%q,"kit":%q,"threads":2,"scale":"test","seed":%d,"reps":2}`,
		workload, kit, seed)
}

// submitTo POSTs a spec to one node (routed unless pin), returning the job
// ID from the 202/200 response.
func submitTo(t *testing.T, base, body string, pin bool) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if pin {
		req.Header.Set(forwardedByHeader, "test-pin") // hop guard forces local admission
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /runs to %s: %d %s", base, resp.StatusCode, raw)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &view); err != nil || view.ID == "" {
		t.Fatalf("submission response %q: %v", raw, err)
	}
	return view.ID
}

// jobView polls GET /runs/{id} on base until the job is terminal and
// returns the final view.
func jobView(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view["status"] {
		case "done", "error":
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func TestClusterRoutesSameSpecToOneOwner(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"}, nil)
	for seed := int64(0); seed < 6; seed++ {
		body := specBody("fft", "lockfree", seed)
		idA := submitTo(t, nodes["a"].base, body, false)
		idB := submitTo(t, nodes["b"].base, body, false)
		ownA, ownB := ownerFromJobID(idA), ownerFromJobID(idB)
		if ownA == "" || ownA != ownB {
			t.Fatalf("seed %d: same spec owned by %q (via a) and %q (via b)", seed, ownA, ownB)
		}
		// The terminal view must be reachable through either node: the
		// non-owner proxies GET /runs/{id} by the ID's embedded owner.
		if v := jobView(t, nodes["a"].base, idA); v["status"] != "done" {
			t.Fatalf("seed %d: job %s finished %v", seed, idA, v["status"])
		}
		if v := jobView(t, nodes["b"].base, idA); v["status"] != "done" {
			t.Fatalf("seed %d: job %s not readable via the other node: %v", seed, idA, v)
		}
	}
}

func TestClusterStealsFromBackloggedPeer(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		if id == "a" {
			// One worker behind an armed gate: the first job wedges the worker
			// and everything behind it queues, waiting to be stolen.
			scfg.Workers = 1
			ccfg.StealInterval = time.Hour // a never steals; b is the only thief
		}
	})
	a, b := nodes["a"], nodes["b"]
	a.gate.arm()

	var ids []string
	for seed := int64(0); seed < 5; seed++ {
		ids = append(ids, submitTo(t, a.base, specBody("fft", "lockfree", seed), true))
	}
	// b's stealer must notice a's backlog and pull jobs across.
	waitFor(t, "b stole nothing from a's backlog", func() bool { return b.cl.stolenTotal.Load() > 0 })
	a.gate.release() // a's wedged worker runs on
	stolen := 0
	for _, id := range ids {
		v := jobView(t, a.base, id)
		if v["status"] != "done" {
			t.Fatalf("job %s finished %v, want done", id, v["status"])
		}
		if owner := ownerFromJobID(id); owner != "a" {
			t.Fatalf("pinned job %s owned by %q, want a", id, owner)
		}
		if v["ran_on"] == "b" {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no job view names b as the executing node")
	}
	if got := a.srv.StolenCount(); got != 0 {
		t.Fatalf("%d jobs still out on loan after all completed", got)
	}
	// Every stolen job was journaled by its owner: a's store holds all
	// five records, each naming node a.
	for _, id := range ids {
		rec, ok := a.srv.Store().ByID(id)
		if !ok {
			t.Fatalf("owner journal missing record %s", id)
		}
		if rec.Node != "a" {
			t.Fatalf("record %s journaled with node %q, want a", id, rec.Node)
		}
	}
}

// TestStealerTakesBacklogWithoutWaitingForTicks queues a backlog behind the
// victim's one wedged worker and gives the only thief a long idle interval
// and a batch of two: pacing every round by the timer would need one tick
// per two jobs, so the thief must ask again right after a round that landed
// work, and still fall back to the timer once the victim is empty.
func TestStealerTakesBacklogWithoutWaitingForTicks(t *testing.T) {
	const (
		tick   = 400 * time.Millisecond
		batch  = 2
		queued = 20
	)
	nodes := startTestCluster(t, []string{"a", "b"}, func(id string, scfg *server.Config, ccfg *Config) {
		ccfg.StealInterval, ccfg.StealBatch = tick, batch
		if id == "a" {
			scfg.Workers = 1
			ccfg.StealInterval = time.Hour // a never steals; b is the only thief
		}
	})
	a, b := nodes["a"], nodes["b"]
	a.gate.arm()
	ids := []string{submitTo(t, a.base, specBody("fft", "lockfree", 0), true)} // wedges a's worker
	for seed := int64(1); seed <= queued; seed++ {
		ids = append(ids, submitTo(t, a.base, specBody("fft", "lockfree", seed), true))
	}
	start := time.Now()
	waitFor(t, "b never took a's whole backlog", func() bool { return b.cl.stolenTotal.Load() == queued })
	if ticks := time.Since(start) / tick; ticks >= queued/batch/2 {
		t.Fatalf("b needed %d steal ticks for %d jobs at %d per request: it is sleeping between rounds that took work",
			ticks, queued, batch)
	}
	a.gate.release()
	for _, id := range ids {
		if v := jobView(t, a.base, id); v["status"] != "done" {
			t.Fatalf("job %s finished %v, want done", id, v["status"])
		}
	}
	if got := a.srv.StolenCount(); got != 0 {
		t.Fatalf("%d jobs still out on loan after all completed", got)
	}
}

func TestClusterCompareIsCensusIdenticalAcrossNodes(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b", "c"}, nil)
	// Build one /compare population (both kits, several seeds), submitted
	// through different nodes so ownership spreads.
	entry := []string{"a", "b", "c"}
	var ids []string
	for seed := int64(0); seed < 4; seed++ {
		via := nodes[entry[seed%3]].base
		ids = append(ids, submitTo(t, via, specBody("fft", "classic", seed), false))
		ids = append(ids, submitTo(t, via, specBody("fft", "lockfree", seed), false))
	}
	for _, id := range ids {
		owner := ownerFromJobID(id)
		if v := jobView(t, nodes[owner].base, id); v["status"] != "done" {
			t.Fatalf("job %s finished %v", id, v["status"])
		}
	}
	// Once replication has converged, the census check: a fixed bootstrap
	// query must answer identically from every node.
	awaitReplication(t, nodes["a"], nodes["b"], nodes["c"])
	compareIdentical(t, nodes["a"], nodes["b"], nodes["c"])
}

// TestClusterKillThiefMidTheftReclaimsAndReroutes kills the only thief
// while it holds stolen jobs: the victim's health probe must flip it down
// and bring the loans home at once (the reclaim deadline is an hour away,
// so nothing else can), every accepted job must still finish, the dead
// node's keyspace must re-route to a survivor, the survivors must still
// agree on /compare, and the victim's access log must name both nodes on
// the job lines of the thefts that landed before the kill.
func TestClusterKillThiefMidTheftReclaimsAndReroutes(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "a.access.jsonl")
	accessLog, err := telemetry.OpenAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { accessLog.Close() })
	nodes := startTestCluster(t, []string{"a", "b", "c"}, func(id string, scfg *server.Config, ccfg *Config) {
		switch id {
		case "a": // the victim: one gated worker, never steals, never reclaims by deadline
			scfg.Workers = 1
			scfg.AccessLog = accessLog
			ccfg.StealInterval = time.Hour
			ccfg.ReclaimAfter = time.Hour
		case "b":
			ccfg.StealInterval = time.Hour // only c steals, so the loans are all c's
		}
	})
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	kits := []string{"classic", "lockfree"}

	// With c's gate open, the first job wedges a's worker and c steals and
	// completes the two queued behind it.
	a.gate.arm()
	var ids []string
	for seed := int64(0); seed < 3; seed++ {
		ids = append(ids, submitTo(t, a.base, specBody("fft", kits[seed%2], seed), true))
	}
	waitFor(t, "c never completed the thefts that precede the kill", func() bool { return c.cl.stolenTotal.Load() == 2 })
	if got := metricValue(t, c, "splash4d_jobs_stolen_total", nil); got != 2 {
		t.Fatalf("c's /metrics reports %v completed thefts, want 2", got)
	}

	// With c's gate armed, the next thefts stay in flight on c: kill it there.
	c.gate.arm()
	for seed := int64(3); seed < 7; seed++ {
		ids = append(ids, submitTo(t, a.base, specBody("fft", kits[seed%2], seed), true))
	}
	waitFor(t, "c never stole from the second batch", func() bool { return a.srv.StolenCount() >= 1 })
	c.kill()
	// a's worker is still gated and c is dead, so only the reclaim off c's
	// health transition can take the loans home.
	waitFor(t, "a never reclaimed the jobs its dead thief held", func() bool { return a.srv.StolenCount() == 0 })
	if a.cl.peers["c"].up.Load() {
		t.Fatal("a reclaimed from c but still sees it up")
	}
	a.gate.release()
	for _, id := range ids {
		if v := jobView(t, a.base, id); v["status"] != "done" {
			t.Fatalf("job %s finished %v after the thief died, want done", id, v["status"])
		}
	}

	// A key the dead node owns re-routes to a survivor and completes there.
	waitFor(t, "b never saw c down", func() bool { return !b.cl.peers["c"].up.Load() })
	rerouted := ""
	for seed := int64(100); seed < 164 && rerouted == ""; seed++ {
		sp := server.Spec{Workload: "fft", Kit: "classic", Threads: 2, Scale: "test", Seed: seed, Reps: 2}
		if err := a.srv.NormalizeSpec(&sp); err != nil {
			t.Fatal(err)
		}
		if rendezvous(sp.Key(), a.cl.order) == "c" {
			rerouted = submitTo(t, a.base, specBody("fft", "classic", seed), false)
		}
	}
	if owner := ownerFromJobID(rerouted); owner != "a" && owner != "b" {
		t.Fatalf("spec owned by dead node c was admitted as %q, want a survivor's job", rerouted)
	}
	if v := jobView(t, a.base, rerouted); v["status"] != "done" {
		t.Fatalf("re-routed job %s finished %v, want done", rerouted, v["status"])
	}

	awaitReplication(t, a, b)
	compareIdentical(t, a, b)

	// The victim's /metrics tells the same story: every loan either landed
	// (the 2 thefts above) or was reclaimed, none is outstanding, c is down.
	donated := metricValue(t, a, "splash4d_jobs_donated_total", nil)
	reclaimed := metricValue(t, a, "splash4d_jobs_reclaimed_total", nil)
	outstanding := metricValue(t, a, "splash4d_jobs_stolen_outstanding", nil)
	if reclaimed < 1 || donated != 2+reclaimed || outstanding != 0 {
		t.Fatalf("a donated %v and reclaimed %v with %v outstanding, want donated = 2 landed + reclaimed, none outstanding",
			donated, reclaimed, outstanding)
	}
	if up := metricValue(t, a, "splash4d_peer_up", map[string]string{"peer": "c"}); up != 0 {
		t.Fatalf("a's /metrics still reports peer c up (%v)", up)
	}

	// Every job line on the victim's log names its owner, and the thefts
	// that landed name the thief beside it.
	if err := accessLog.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ranOnThief := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.Contains(line, `"kind":"job"`) {
			continue
		}
		var entry struct {
			Node  string `json:"node"`
			RanOn string `json:"ran_on"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if entry.Node != "a" {
			t.Fatalf("job line names owner %q, want a: %s", entry.Node, line)
		}
		if entry.RanOn == "c" {
			ranOnThief++
		}
	}
	if ranOnThief != 2 {
		t.Fatalf("a's access log has %d job lines with ran_on=c, want the 2 thefts that landed", ranOnThief)
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// node is one splash4d hosted in this process on a loopback listener, with
// the daemon's production settings: SyncAlways journal, default queue
// capacity, and — when it has peers — default cluster intervals.
type node struct {
	base   string
	store  *resultstore.Store
	srv    *server.Server
	cl     *cluster.Cluster // nil for a single node
	hs     *http.Server
	served chan error // Serve's return value
}

// listen opens one loopback listener per node up front, so every node can be
// told its peers' addresses before any starts.
func listen(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("loopback listener: %w", err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

func baseURL(ln net.Listener) string { return "http://" + ln.Addr().String() }

// startNode opens (replaying) the journal and serves the node on ln. workers
// is 0 for the daemon's default. peers is nil for a single node.
func startNode(id, journal string, workers int, ln net.Listener, peers map[string]string) (*node, error) {
	store, err := resultstore.OpenWithOptions(journal, resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		ln.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Store: store, NodeID: id, Workers: workers})
	if err != nil {
		ln.Close()
		store.Close()
		return nil, err
	}
	n := &node{base: baseURL(ln), store: store, srv: srv, served: make(chan error, 1)}
	handler := srv.Handler()
	if peers != nil {
		n.cl, err = cluster.New(cluster.Config{Self: id, Peers: peers, Server: srv})
		if err != nil {
			ln.Close()
			err = errors.Join(err, srv.Close(), store.Close())
			return nil, err
		}
		handler = n.cl.Handler()
	}
	n.hs = &http.Server{Handler: handler}
	go func() { n.served <- n.hs.Serve(ln) }()
	if n.cl != nil {
		n.cl.Start()
	}
	return n, nil
}

// stop shuts the node down in the daemon's order — cluster loops, then a
// graceful drain, then the listener and the journal — and returns once the
// serving goroutine has ended. After the drain no job or event stream is left,
// so the listener is closed outright: a graceful Shutdown would wait five
// seconds on any connection a peer dialled but never used.
func (n *node) stop() error {
	if n.cl != nil {
		n.cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errDrain := n.srv.Drain(ctx)
	errClose := n.hs.Close()
	if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
		errClose = errors.Join(errClose, err)
	}
	return errors.Join(errDrain, errClose, n.store.Close())
}

// client is one closed-loop HTTP user: it owns its connections.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches one URL and returns status and body.
func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// jobView is what the benchmark reads from POST /runs and GET /runs/{id}.
type jobView struct {
	ID        string           `json:"id"`
	Status    string           `json:"status"`
	Kit       string           `json:"kit"`
	Node      string           `json:"node"`
	RanOn     string           `json:"ran_on"`
	Error     string           `json:"error"`
	Spans     []telemetry.Span `json:"spans"`
	SpanSumNS int64            `json:"span_sum_ns"`
	Finished  time.Time        `json:"finished"`
	Result    struct {
		TimesNS []int64 `json:"times_ns"`
	} `json:"result"`
}

// jobTimes are the instants of one job as its client saw them.
type jobTimes struct {
	sent      time.Time // POST written
	submitted time.Time // POST answered
	listening time.Time // SSE request sent
	terminal  time.Time // terminal event read
	closed    time.Time // SSE stream ended
	fetched   time.Time // GET /runs/{id} answered
	reopened  int       // event streams that ended before the terminal event
}

// maxReopens bounds how often one job's event stream is reopened, reopenAfter
// apart.
const (
	maxReopens  = 100
	reopenAfter = 2 * time.Millisecond
)

// runJob drives one job the way a user would: submit it, wait on the event
// stream for the terminal event, then fetch the result. It never polls.
func (c *client) runJob(base string, spec server.Spec) (jobView, jobTimes, error) {
	var view jobView
	var at jobTimes
	body, err := json.Marshal(spec)
	if err != nil {
		return view, at, err
	}
	at.sent = time.Now()
	resp, err := c.hc.Post(base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, at, err
	}
	accepted, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at.submitted = time.Now()
	if err != nil {
		return view, at, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return view, at, fmt.Errorf("POST /runs: status %d: %s", resp.StatusCode, bytes.TrimSpace(accepted))
	}
	if err := json.Unmarshal(accepted, &view); err != nil || view.ID == "" {
		return view, at, fmt.Errorf("POST /runs: no job id in %q: %v", accepted, err)
	}

	// The stream replays what the job has emitted, then follows it live. A
	// stream that ends without a terminal event is reopened after a pause,
	// as an EventSource would: the daemon ends one early when the
	// subscription lands between the job's final state change and its final
	// event, a window that stays open for as long as the finishing goroutine
	// is kept off the two busy cores.
	at.listening = time.Now()
	for last := ""; at.terminal.IsZero(); {
		events, err := c.hc.Get(base + "/runs/" + view.ID + "/events")
		if err != nil {
			return view, at, err
		}
		sc := bufio.NewScanner(events.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				last = name
				if at.terminal.IsZero() && (name == "done" || name == "error") {
					at.terminal = time.Now()
				}
			}
		}
		events.Body.Close()
		if err := sc.Err(); err != nil {
			return view, at, fmt.Errorf("event stream of %s: %w", view.ID, err)
		}
		if at.terminal.IsZero() {
			if at.reopened++; at.reopened > maxReopens {
				return view, at, fmt.Errorf("event stream of %s ended %d times before a terminal event, last after %q", view.ID, at.reopened, last)
			}
			time.Sleep(reopenAfter)
		}
	}
	at.closed = time.Now()

	status, body, err := c.get(base + "/runs/" + view.ID)
	at.fetched = time.Now()
	if err != nil {
		return view, at, err
	}
	if status != http.StatusOK {
		return view, at, fmt.Errorf("GET /runs/%s: status %d", view.ID, status)
	}
	view = jobView{}
	if err := json.Unmarshal(body, &view); err != nil {
		return view, at, fmt.Errorf("GET /runs: %w", err)
	}
	return view, at, nil
}

// jobDefect names what is wrong with a finished job's view, or "". Two things
// the daemon does are not defects of the job. It closes the `publish` span
// after it has emitted the terminal event, so a view fetched at once may not
// have it yet. And it marks `dedup` after the job is already in the ring, so a
// fast worker can mark `queue` first, about once in 50 000 jobs; such chains
// are counted (server.chain_misordered), not failed.
func jobDefect(v jobView) string {
	if v.Status != "done" {
		return fmt.Sprintf("job %s ended %q: %s", v.ID, v.Status, v.Error)
	}
	var seen [telemetry.NumPhases]bool
	for _, s := range v.Spans {
		seen[s.Phase] = true
	}
	for p := telemetry.PhaseAdmission; p <= telemetry.PhaseJournal; p++ {
		if !seen[p] {
			return fmt.Sprintf("job %s: span chain is missing phase %q", v.ID, p)
		}
	}
	if len(v.Result.TimesNS) == 0 {
		return fmt.Sprintf("job %s is done but carries no times_ns", v.ID)
	}
	return ""
}

// metricSum adds up every sample of one metric family in a /metrics body,
// across label sets.
func metricSum(body []byte, family string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// scrape fetches a node's /metrics.
func (c *client) scrape(base string) ([]byte, error) {
	status, body, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return body, nil
}

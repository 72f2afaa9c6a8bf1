// Command splash4d is the Splash-4 benchmark execution daemon: a
// long-running HTTP service that runs suite workloads on demand through the
// measurement harness, journals every result to an append-only JSONL store,
// and answers classic-vs-lockfree comparison queries with bootstrap
// confidence intervals. Its own job pipeline runs on the suite's lock-free
// constructs — the admission queue is the sync4/lockfree MPMC ring.
//
//	splash4d -addr :8724 -store splash4d.jsonl
//
// The API is documented in docs/SERVICE.md. On SIGTERM or SIGINT the daemon
// drains: it stops admitting (503), finishes in-flight jobs up to
// -drain-timeout, flushes the store, and exits.
//
// With -node-id and -peers the daemon joins a cluster (internal/cluster):
// job specs route to their rendezvous-hash owner, idle nodes steal queued
// work from busy peers, and every node replicates the others' result
// journals so reads answer cluster-wide. See docs/CLUSTER.md.
//
//	splash4d -addr :8724 -node-id a -peers b=http://h2:8724,c=http://h3:8724
//
// The daemon has no self-test mode: its end-to-end checks are Go tests in
// internal/server and internal/cluster (table in docs/ROBUSTNESS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8724", "listen address")
		storePath    = flag.String("store", "splash4d.jsonl", "append-only JSONL result store")
		queueCap     = flag.Int("queue", 64, "admission ring capacity (rounds up to a power of two, min 2)")
		workers      = flag.Int("workers", 0, "worker pool size (0 means GOMAXPROCS)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job execution budget; a job exceeding it fails instead of wedging its worker")
		repTimeout   = flag.Duration("rep-timeout", 0, "per-repetition watchdog deadline (0 means the job timeout)")
		accessLog    = flag.String("access-log", "", "structured JSONL access log path (request + job lifecycle lines); empty disables")
		debugAddr    = flag.String("debug-addr", "", "separate listener for net/http/pprof; empty disables")
		nodeID       = flag.String("node-id", "", "this node's cluster name; empty runs single-node")
		peers        = flag.String("peers", "", "comma-separated peer list, id=http://host:port pairs (requires -node-id)")
	)
	flag.Parse()

	cfg := server.Config{
		QueueCapacity: *queueCap,
		Workers:       *workers,
		JobTimeout:    *jobTimeout,
		RepTimeout:    *repTimeout,
		NodeID:        *nodeID,
	}
	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("splash4d: %v", err)
	}
	if len(peerMap) > 0 && *nodeID == "" {
		log.Fatalf("splash4d: -peers requires -node-id")
	}
	if err := serve(*addr, *storePath, *accessLog, *debugAddr, cfg, *drainTimeout, peerMap); err != nil {
		log.Fatalf("splash4d: %v", err)
	}
}

// parsePeers splits "-peers b=http://h:1,c=http://h:2" into a map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, base, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || base == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", pair)
		}
		out[id] = strings.TrimSuffix(base, "/")
	}
	return out, nil
}

// newServer opens the store and builds the pipeline; the caller owns all
// three returned resources (the access log is nil when disabled). The
// journal runs under SyncAlways: the daemon acknowledges a result only
// after it is on disk (fsync before the index publish), so a crash can
// never lose an acknowledged measurement.
func newServer(storePath, accessLogPath string, cfg server.Config) (*server.Server, *resultstore.Store, *telemetry.AccessLog, error) {
	store, err := resultstore.OpenWithOptions(storePath, resultstore.Options{Sync: resultstore.SyncAlways})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening result store: %w", err)
	}
	var al *telemetry.AccessLog
	if accessLogPath != "" {
		al, err = telemetry.OpenAccessLog(accessLogPath)
		if err != nil {
			store.Close()
			return nil, nil, nil, fmt.Errorf("opening access log: %w", err)
		}
		cfg.AccessLog = al
	}
	cfg.Store = store
	srv, err := server.New(cfg)
	if err != nil {
		if al != nil {
			al.Close()
		}
		store.Close()
		return nil, nil, nil, err
	}
	if n := store.Skipped(); n > 0 {
		log.Printf("store %s: skipped %d malformed journal lines on replay", storePath, n)
	}
	return srv, store, al, nil
}

// startDebug serves net/http/pprof on its own listener, keeping the
// profiling surface off the public API address.
func startDebug(addr string) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

func serve(addr, storePath, accessLogPath, debugAddr string, cfg server.Config, drainTimeout time.Duration, peers map[string]string) error {
	srv, store, al, err := newServer(storePath, accessLogPath, cfg)
	if err != nil {
		return err
	}
	defer store.Close()
	if al != nil {
		defer al.Close()
	}
	if debugAddr != "" {
		dbg, dbgBase, err := startDebug(debugAddr)
		if err != nil {
			srv.Close()
			return err
		}
		defer dbg.Close()
		log.Printf("debug (pprof) listening on %s", dbgBase)
	}

	// Clustered: wrap the API with the routing/peer layer and start the
	// background loops (health probes, journal shipping, work stealing).
	handler := srv.Handler()
	var cl *cluster.Cluster
	if len(peers) > 0 {
		cl, err = cluster.New(cluster.Config{
			Self:   cfg.NodeID,
			Peers:  peers,
			Server: srv,
			Logf:   log.Printf,
		})
		if err != nil {
			srv.Close()
			return err
		}
		handler = cl.Handler()
		cl.Start()
		log.Printf("cluster: node %s with %d peer(s)", cfg.NodeID, len(peers))
	}

	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		err := hs.ListenAndServe()
		if err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	log.Printf("splash4d listening on %s (store %s, %d replayed results)", addr, storePath, store.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case sig := <-sigc:
		log.Printf("%s: draining (timeout %v)", sig, drainTimeout)
	}

	// Cluster loops stop before the drain so nothing donates or ships
	// against a draining pipeline.
	if cl != nil {
		cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := hs.Shutdown(context.Background()); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("drained cleanly; %d results journaled", store.Len())
	return nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/resultstore"
	"repro/internal/stats"
)

// cluster_mixed: three nodes, journals preloaded and replayed, one closed-loop
// writer whose jobs enter through the nodes in rotation (two in three are
// forwarded to their owner) beside one closed-loop reader. Only here do
// routing, journal shipping and the read path work.

const (
	preloadPerNode   = 2000
	clusterSetupReps = 3
	// pollEvery paces the two places the benchmark has to poll because the
	// API offers nothing to wait on (replica catch-up, /compare convergence).
	// It is far above a millisecond on purpose: a tight poll would take one of
	// the two cores from the nodes being measured.
	pollEvery = 20 * time.Millisecond
	pollLimit = 30 * time.Second
)

var clusterIDs = []string{"a", "b", "c"}

type clusterRun struct {
	nodes []*node
	bases []string
}

func (c *clusterRun) stop() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.stop())
	}
	return errors.Join(errs...)
}

// startCluster starts the three nodes on their journals, each with one
// worker and the default cluster intervals.
func startCluster(journals []string) (*clusterRun, error) {
	lns, err := listen(len(clusterIDs))
	if err != nil {
		return nil, err
	}
	c := &clusterRun{}
	for i, id := range clusterIDs {
		peers := make(map[string]string)
		for j, other := range clusterIDs {
			if j != i {
				peers[other] = baseURL(lns[j])
			}
		}
		n, err := startNode(id, journals[i], 1, lns[i], peers)
		if err != nil {
			for _, ln := range lns[i+1:] {
				ln.Close()
			}
			return nil, errors.Join(err, c.stop())
		}
		c.nodes = append(c.nodes, n)
		c.bases = append(c.bases, n.base)
	}
	return c, nil
}

// poll calls ready every pollEvery until it reports true.
func poll(what string, ready func() (bool, error)) error {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for limit := time.Now().Add(pollLimit); ; <-tick.C {
		ok, err := ready()
		if err != nil || ok {
			return err
		}
		if time.Now().After(limit) {
			return fmt.Errorf("%s did not happen within %v", what, pollLimit)
		}
	}
}

// caughtUp waits until every node holds a replica of every other node's
// whole journal — the full-mesh catch-up.
func (c *clusterRun) caughtUp(cl *client) error {
	return poll("full-mesh journal catch-up", func() (bool, error) {
		total := 0
		for _, n := range c.nodes {
			total += n.store.Len()
		}
		for _, n := range c.nodes {
			body, err := cl.scrape(n.base)
			if err != nil {
				return false, err
			}
			if int(metricSum(body, "splash4d_journal_replica_records"))+n.store.Len() != total {
				return false, nil
			}
		}
		return true, nil
	})
}

// liveCompare is the population the writer's jobs add to.
const liveCompare = "/compare?workload=fft&threads=1&scale=test"

// converged waits until all three nodes answer the live /compare with the
// same bytes.
func (c *clusterRun) converged(cl *client) error {
	return poll("3-way /compare convergence", func() (bool, error) {
		var first []byte
		for i, base := range c.bases {
			status, body, err := cl.get(base + liveCompare)
			if err != nil {
				return false, err
			}
			if status != http.StatusOK {
				return false, fmt.Errorf("GET %s: status %d: %s", liveCompare, status, bytes.TrimSpace(body))
			}
			if i == 0 {
				first = body
			} else if !bytes.Equal(first, body) {
				return false, nil
			}
		}
		return true, nil
	})
}

// readStats are the reader's latencies in ms, by kind.
type readStats struct {
	kind    [numReadKinds][]float64
	all     []float64
	shipLag []float64
}

// readLoop is the closed-loop reader.
func (r *run) readLoop(cl *client, c *clusterRun, deadline time.Time, done *finished, st *readStats) {
	gen := newReadGen(r.seed, len(c.bases))
	for time.Now().Before(deadline) {
		op := gen.next()
		var path string
		switch op.kind {
		case readCompare:
			pop := preloadPopulations[int(op.pick)%len(preloadPopulations)]
			path = fmt.Sprintf("/compare?workload=%s&threads=%d&scale=test", pop.workload, pop.threads)
		case readJobs:
			path = "/jobs?limit=50"
		case readStatus:
			id, ok := done.pick(op.pick)
			if !ok { // nothing has finished yet
				op.kind, path = readMetrics, "/metrics"
				break
			}
			path = "/runs/" + id
		case readMetrics:
			path = "/metrics"
		}
		start := time.Now()
		status, body, err := cl.get(c.bases[op.node] + path)
		end := time.Now()
		if !r.check(err == nil && status == http.StatusOK, "GET %s on node %s: status %d, %v", path, clusterIDs[op.node], status, err) {
			continue
		}
		name := "server.read_" + readKindNames[op.kind]
		r.tr.add(name, name, 0, start, end)
		took := ms(end.Sub(start))
		st.kind[op.kind] = append(st.kind[op.kind], took)
		st.all = append(st.all, took)
		if op.kind == readMetrics {
			st.shipLag = append(st.shipLag, metricSum(body, "splash4d_journal_ship_lag"))
		}
	}
}

func runCluster(r *run) error {
	perNode := preloadPerNode
	if r.tiny {
		perNode = 40
	}
	// Input generation: the seeded journals the nodes will replay.
	journals := make([]string, len(clusterIDs))
	for i, id := range clusterIDs {
		journals[i] = filepath.Join(r.tmp, "cluster-"+id+".jsonl")
		store, err := resultstore.Open(journals[i])
		if err != nil {
			return err
		}
		for _, rec := range preloadRecords(r.seed, i, id, perNode) {
			if err := store.Append(rec); err != nil {
				return errors.Join(err, store.Close())
			}
		}
		if err := store.Close(); err != nil {
			return err
		}
	}
	if r.tr != nil {
		start := time.Now()
		store, err := resultstore.Open(journals[0])
		end := time.Now()
		if err != nil {
			return err
		}
		r.tr.add("probe", "resultstore.replay", 0, start, end)
		r.setLayer("resultstore.replay_ms_per_krec", ms(end.Sub(start))*1e3/float64(perNode))
		if err := store.Close(); err != nil {
			return err
		}
	}

	writer, reader := newClient(), newClient()
	defer writer.close()
	defer reader.close()

	// Set-up: replay the journals, form the mesh, replicate every journal
	// everywhere.
	var c *clusterRun
	var catchups []float64
	for rep := 0; rep < r.reps(clusterSetupReps); rep++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if c, err = startCluster(journals); err != nil {
			return err
		}
		up := time.Now()
		if err := c.caughtUp(writer); err != nil {
			return errors.Join(err, c.stop())
		}
		end := time.Now()
		r.tr.add("setup", "cluster.start", 0, start, up)
		r.tr.add("setup", "cluster.catchup", 0, up, end)
		catchups = append(catchups, ms(end.Sub(up)))
		r.setups = append(r.setups, end.Sub(start).Seconds())
	}
	r.setLayer("cluster.catchup_ms", median(catchups))

	layers, done, reads := &jobLayers{}, &finished{}, &readStats{}
	began := time.Now()
	deadline := began.Add(r.window)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.readLoop(reader, c, deadline, done, reads)
	}()
	jobs := r.jobLoop(writer, newSpecGen(r.seed, 0, 1), c.bases, clusterIDs, deadline, layers, done)
	wg.Wait()
	r.busy = time.Since(began)
	r.work = float64(jobs)

	// The run ends when every node answers the live /compare identically.
	start := time.Now()
	err := errors.Join(c.caughtUp(writer), c.converged(writer))
	end := time.Now()
	r.tr.add("end", "cluster.converge", 0, start, end)
	r.check(err == nil, "cluster did not converge: %v", err)
	r.setLayer("cluster.converge_ms", ms(end.Sub(start)))
	r.note("nodes=%d workers_per_node=1 preloaded_per_node=%d writer_jobs=%d reads=%d", len(clusterIDs), perNode, jobs, len(reads.all))

	var accepted, journaled, retries, hedged, failed, busy float64
	for _, n := range c.nodes {
		body, err := writer.scrape(n.base)
		if err != nil {
			return errors.Join(err, c.stop())
		}
		accepted += metricSum(body, "splash4d_jobs_accepted_total")
		failed += metricSum(body, "splash4d_jobs_failed_total")
		busy += metricSum(body, `splash4d_jobs_rejected_total{cause="ring_full"}`)
		retries += metricSum(body, "splash4d_peer_retries_total")
		hedged += metricSum(body, "splash4d_hedged_requests_total")
		journaled += float64(n.store.Len() - perNode)
	}
	r.check(int(accepted) == jobs, "nodes accepted %d jobs, the writer saw %d end done", int(accepted), jobs)
	r.check(journaled == accepted, "journals hold %d new records for %d accepted jobs: jobs were lost", int(journaled), int(accepted))

	if r.tr != nil {
		layers.report(r)
		r.setLayer("server.jobs_accepted", accepted)
		r.setLayer("server.jobs_429", busy)
		r.setLayer("server.jobs_failed", failed)
		r.setLayer("cluster.retries_total", retries)
		r.setLayer("cluster.hedged_total", hedged)
		r.setLayer("cluster.stolen_jobs", float64(layers.stolen))
		r.setLayer("cluster.local_p50_ms", median(layers.local))
		r.setLayer("cluster.forwarded_p50_ms", median(layers.forwards))
		r.setLayer("cluster.forward_added_ms", median(layers.forwards)-median(layers.local))
		if n := len(layers.latency); n > 0 {
			r.setLayer("cluster.forwarded_share", float64(len(layers.forwards))/float64(n))
		}
		r.setLayer("cluster.ship_lag_bytes_p50", median(reads.shipLag))
		r.setLayer("cluster.reads_per_s", float64(len(reads.all))/r.busy.Seconds())
		r.setLayer("cluster.read_p50_ms", median(reads.all))
		r.setLayer("cluster.read_p99_ms", percentile(reads.all, tailPercentile(len(reads.all))))
		for k, name := range readKindNames {
			r.setLayer("server.read_"+name+"_ms", median(reads.kind[k]))
		}
		r.probeReads(c.nodes[0].store)
	}
	return c.stop()
}

// probeReads times, directly, the two library calls under GET /compare: the
// index scan for a population and the bootstrap over it.
func (r *run) probeReads(store *resultstore.Store) {
	reps := r.reps(20)
	key := resultstore.Key{Workload: "fft", Kit: kitClassic, Threads: 1, Scale: "test"}
	var scan, boot []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		recs := store.ByKey(key)
		end := time.Now()
		r.tr.add("probe", "resultstore.bykey", 0, start, end)
		scan = append(scan, us(end.Sub(start)))
		r.check(len(recs) > 0, "ByKey(%v) found nothing", key)
	}
	base := nsFloats(store.TimesNS(key))
	key.Kit = kitLockfree
	target := nsFloats(store.TimesNS(key))
	for i := 0; i < reps; i++ {
		start := time.Now()
		// /compare's defaults: 95 %, 2000 resamples, seed 1.
		_, err := stats.BootstrapCI(base, target, 0.95, 2000, 1)
		end := time.Now()
		r.tr.add("probe", "stats.bootstrap", 0, start, end)
		r.check(err == nil, "BootstrapCI: %v", err)
		boot = append(boot, ms(end.Sub(start)))
	}
	r.setLayer("resultstore.bykey_us", median(scan))
	r.setLayer("stats.bootstrap_ms", median(boot))
}

func nsFloats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

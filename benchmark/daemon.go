package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// daemon_submit: one splash4d, two closed-loop clients. Each job's timed
// region is about 0.3 ms, so what the clients wait for is the pipeline around
// it: admission, queue, the execution engine, the journal fsync, HTTP and SSE.

const (
	daemonClients = 2
	// warmJobs per client end each set-up: connections are open, the first
	// journal pages written and every lazy path taken before timing starts.
	warmJobs        = 10
	daemonSetupReps = 5
)

// startDaemon is one set-up: journal, server, listener, clients, warm jobs.
func (r *run) startDaemon(rep int) (*node, []*client, error) {
	lns, err := listen(1)
	if err != nil {
		return nil, nil, err
	}
	n, err := startNode("", filepath.Join(r.tmp, fmt.Sprintf("daemon-%d.jsonl", rep)), 0, lns[0], nil)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*client, daemonClients)
	for i := range clients {
		clients[i] = newClient()
		gen := newSpecGen(r.seed^int64(rep+1)<<32, i, daemonClients)
		for j := 0; j < warmJobs; j++ {
			view, _, err := clients[i].runJob(n.base, gen.next())
			if err == nil && view.Status != "done" {
				err = fmt.Errorf("warm job %s ended %q", view.ID, view.Status)
			}
			if err != nil {
				return nil, nil, errors.Join(fmt.Errorf("set-up: %w", err), n.stop())
			}
		}
	}
	return n, clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

func runDaemon(r *run) error {
	var n *node
	var clients []*client
	for rep := 0; rep < r.reps(daemonSetupReps); rep++ {
		if n != nil {
			closeClients(clients)
			if err := n.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if n, clients, err = r.startDaemon(rep); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	defer closeClients(clients)
	warmed := daemonClients * warmJobs

	layers := &jobLayers{}
	began := time.Now()
	deadline := began.Add(r.window)
	done := make([]int, daemonClients)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done[i] = r.jobLoop(c, newSpecGen(r.seed, i, daemonClients), []string{n.base}, []string{""}, deadline, layers, nil)
		}()
	}
	wg.Wait()
	r.busy = time.Since(began)
	for _, d := range done {
		r.work += float64(d)
	}
	r.note("clients=%d closed-loop jobs_done=%d warm_jobs=%d", daemonClients, int(r.work), warmed)

	metrics, err := clients[0].scrape(n.base)
	if err != nil {
		return errors.Join(err, n.stop())
	}
	accepted := metricSum(metrics, "splash4d_jobs_accepted_total")
	if r.tr != nil {
		layers.report(r)
		r.setLayer("server.jobs_accepted", accepted)
		r.setLayer("server.jobs_429", metricSum(metrics, `splash4d_jobs_rejected_total{cause="ring_full"}`))
		r.setLayer("server.jobs_failed", metricSum(metrics, "splash4d_jobs_failed_total"))
		if err := r.probeEngine(n.srv); err != nil {
			return errors.Join(err, n.stop())
		}
		// The server's own chain should explain what the client waited for
		// (a timing claim: not made about the tests' millisecond smoke).
		r.check(r.tiny || r.layer["server.span_coverage"] >= 0.90,
			"span chain covers %.1f%% of the median client latency, want >= 90%%", 100*r.layer["server.span_coverage"])
	}
	journaled := n.store.Len()
	if err := n.stop(); err != nil {
		return err
	}
	r.check(int(accepted) == int(r.work)+warmed, "server accepted %d jobs, clients saw %d end done", int(accepted), int(r.work)+warmed)
	r.check(journaled == int(accepted), "journal holds %d records for %d accepted jobs", journaled, int(accepted))
	return nil
}

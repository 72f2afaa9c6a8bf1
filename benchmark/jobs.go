package main

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// jobLayers collects, in a traced pass, what one job's view and its client's
// clock say about each layer it crossed.
type jobLayers struct {
	mu sync.Mutex
	// Microseconds, except coverage (a share) and the latencies (ms).
	phase                    [telemetry.NumPhases][]float64
	chain                    []float64
	execOverhead             []float64
	post, transit            []float64
	status, notify           []float64
	coverage                 []float64
	latency, local, forwards []float64
	stolen, reopened         int
	misordered               int
}

// finished holds the ids of jobs that ended, for the reader's status reads.
type finished struct {
	mu  sync.Mutex
	ids []string
}

func (f *finished) add(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ids = append(f.ids, id)
}

func (f *finished) pick(draw uint32) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ids) == 0 {
		return "", false
	}
	return f.ids[int(draw)%len(f.ids)], true
}

// hostProbeEvery is how many jobs a writer runs between two host probes.
const hostProbeEvery = 20

// jobLoop is one closed-loop writer: it submits its next job when the
// previous one's result is in hand, entering through the nodes in rotation,
// until the deadline — but for two jobs at least, one per kit. It returns the
// number of jobs that ended done.
func (r *run) jobLoop(c *client, gen *specGen, bases []string, ids []string, deadline time.Time, layers *jobLayers, done *finished) int {
	ok := 0
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if i%hostProbeEvery == 0 {
			r.host.sample()
		}
		entry := i % len(bases)
		spec := gen.next()
		view, at, err := c.runJob(bases[entry], spec)
		if !r.check(err == nil, "job via %s: %v", bases[entry], err) {
			continue
		}
		defect := jobDefect(view)
		if !r.check(defect == "", "%s", defect) {
			continue
		}
		ok++
		r.units.add("job/"+spec.Kit, spec.Kit, ms(at.terminal.Sub(at.sent)))
		if done != nil {
			done.add(view.ID)
		}
		if r.tr != nil {
			layers.observe(r.tr, view, at, ids[entry])
		}
	}
	return ok
}

// observe files one finished job. The server's span chain comes as offsets
// from the request's arrival; it is placed on the benchmark's clock by the
// view's `finished` stamp, which the server takes as the last repetition's
// span closes.
func (l *jobLayers) observe(tr *tracer, v jobView, at jobTimes, entryNode string) {
	var rep, beforeJournal int64
	for _, s := range v.Spans {
		if s.Phase < telemetry.PhaseJournal {
			beforeJournal += s.DurNS()
		}
		if s.Phase == telemetry.PhaseRep {
			rep += s.DurNS()
		}
	}
	// All in nanoseconds on the tracer's clock.
	sent, terminal := tr.since(at.sent), tr.since(at.terminal)
	arrival := tr.since(v.Finished) - beforeJournal
	published := arrival + v.SpanSumNS

	root := tr.add(v.ID, "client.iteration", 0, at.sent, at.fetched)
	job := tr.add(v.ID, "client.job", root, at.sent, at.terminal)
	tr.add(v.ID, "http.submit", job, at.sent, at.submitted)
	tr.add(v.ID, "sse.wait", job, at.listening, at.terminal)
	for _, s := range v.Spans {
		tr.addNS(v.ID, "server."+s.Phase.String(), job, arrival+s.Start, arrival+s.End)
	}
	tr.add(v.ID, "http.status", root, at.closed, at.fetched)

	var region int64
	for _, ns := range v.Result.TimesNS {
		region += ns
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range v.Spans {
		l.phase[s.Phase] = append(l.phase[s.Phase], float64(s.DurNS())/1e3)
	}
	l.chain = append(l.chain, float64(v.SpanSumNS)/1e3)
	l.execOverhead = append(l.execOverhead, float64(rep-region)/1e3)
	l.transit = append(l.transit, float64(arrival-sent)/1e3)
	l.notify = append(l.notify, float64(terminal-published)/1e3)
	l.post = append(l.post, us(at.submitted.Sub(at.sent)))
	l.status = append(l.status, us(at.fetched.Sub(at.closed)))
	l.coverage = append(l.coverage, float64(v.SpanSumNS)/float64(terminal-sent))
	latency := ms(at.terminal.Sub(at.sent))
	l.latency = append(l.latency, latency)
	if v.Node == entryNode || v.Node == "" {
		l.local = append(l.local, latency)
	} else {
		l.forwards = append(l.forwards, latency)
	}
	l.reopened += at.reopened
	if misordered(v.Spans) {
		l.misordered++
	}
	if v.RanOn != "" && v.RanOn != v.Node {
		l.stolen++
	}
}

// misordered reports whether the chain's phases are out of lifecycle order.
func misordered(spans []telemetry.Span) bool {
	for i := 1; i < len(spans); i++ {
		if spans[i].Phase < spans[i-1].Phase {
			return true
		}
	}
	return false
}

// report turns the collected samples into the server.* per-layer metrics.
func (l *jobLayers) report(r *run) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for p := telemetry.Phase(0); int(p) < telemetry.NumPhases; p++ {
		r.setLayer("server."+p.String()+"_us", median(l.phase[p]))
	}
	r.setLayer("server.exec_overhead_us", median(l.execOverhead))
	r.setLayer("server.http_submit_us", median(l.transit))
	r.setLayer("server.http_post_us", median(l.post))
	r.setLayer("server.sse_reopened", float64(l.reopened))
	r.setLayer("server.chain_misordered", float64(l.misordered))
	r.setLayer("server.http_status_us", median(l.status))
	r.setLayer("server.sse_notify_us", median(l.notify))
	r.setLayer("server.span_coverage", median(l.coverage))
	// The reconciliation: what the client waited should be the request's
	// way in, then the server's chain, then the terminal event's way back.
	// (The POST's answer is not on that path: the job runs while it travels.)
	if whole := median(l.latency) * 1e3; whole > 0 {
		parts := median(l.transit) + median(l.chain) + median(l.notify)
		r.setLayer("server.reconcile_gap_share", math.Abs(whole-parts)/whole)
	}
}

// probeEngine times, directly, the pieces of the job pipeline the span chain
// lumps into `rep` and `journal`.
func (r *run) probeEngine(srv *server.Server) error {
	var exec, recorder []float64
	gen := newSpecGen(r.seed, 7, 8)
	for i := 0; i < r.reps(30); i++ {
		start := time.Now()
		res := srv.ExecuteSpec(context.Background(), gen.next())
		end := time.Now()
		r.tr.add("probe", "server.execute_spec", 0, start, end)
		r.check(res.Status == "ok", "ExecuteSpec: %s", res.Error)
		exec = append(exec, us(end.Sub(start)))

		// The recorder geometry executeSpec allocates for a 1-thread job.
		start = time.Now()
		trace.NewRecorder(2*1+2, 1<<16)
		end = time.Now()
		r.tr.add("probe", "trace.recorder_new", 0, start, end)
		recorder = append(recorder, us(end.Sub(start)))
	}
	r.setLayer("server.execute_spec_us", median(exec))
	r.setLayer("trace.recorder_new_us", median(recorder))

	records := preloadRecords(r.seed, 0, "probe", r.reps(100))
	for name, policy := range map[string]resultstore.SyncPolicy{
		"resultstore.append_sync_us":   resultstore.SyncAlways,
		"resultstore.append_nosync_us": resultstore.SyncOS,
	} {
		store, err := resultstore.OpenWithOptions(filepath.Join(r.tmp, name+".jsonl"), resultstore.Options{Sync: policy})
		if err != nil {
			return err
		}
		var xs []float64
		for _, rec := range records {
			start := time.Now()
			err := store.Append(rec)
			end := time.Now()
			r.tr.add("probe", name[:len(name)-3], 0, start, end)
			if err != nil {
				store.Close()
				return err
			}
			xs = append(xs, us(end.Sub(start)))
		}
		if err := store.Close(); err != nil {
			return err
		}
		r.setLayer(name, median(xs))
	}
	return nil
}

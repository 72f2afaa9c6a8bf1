// Command splash4-loadgen is the splash4d traffic lab: a seeded,
// replayable what-if simulator with four schedule shapes (steady, burst,
// diurnal, dedup-hostile) and an SLO gate that turns latency percentiles
// and error budgets into a verdict.
//
//	splash4-loadgen -seed 42 -out BENCH_traffic.json
//
// The schedules run through a deterministic virtual-clock model of the
// daemon's admission pipeline (bounded ring, worker pool, singleflight
// dedup, adaptive Retry-After): the same seed always produces
// byte-identical report output, so the artifact is diffable across runs.
// Exit status is 0 only if every shape passed its SLO.
//
// The model is not the daemon. The client retry contract itself (429 and
// 503 carry an in-range Retry-After, identical in-flight specs get a
// singleflight 200, nothing accepted is lost) is specified in
// docs/SERVICE.md and tested against the real server in internal/server.
package main

import (
	"errors"
	"flag"
	"log"

	"repro/internal/loadgen"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 42, "schedule/model seed; a pinned seed makes the output byte-stable")
		out       = flag.String("out", "BENCH_traffic.json", "report artifact path")
		requests  = flag.Int("requests", 400, "requests per shape")
		spanS     = flag.Int("span", 60, "schedule window in virtual seconds")
		workers   = flag.Int("workers", 4, "modeled worker pool size")
		queueCap  = flag.Int("queue", 8, "modeled admission ring capacity")
		serviceMS = flag.Int("service-ms", 200, "mean modeled job service time")
		retries   = flag.Int("retries", 3, "client retry budget after a 429/503 bounce")
	)
	flag.Parse()

	simCfg := loadgen.SimConfig{Workers: *workers, QueueCap: *queueCap,
		ServiceNS: int64(*serviceMS) * 1e6, MaxRetries: *retries}
	if err := runSim(simCfg, *seed, *requests, int64(*spanS)*1e9, *out); err != nil {
		log.Fatalf("splash4-loadgen: %v", err)
	}
}

// runSim executes every shape through the deterministic model and gates
// the results against the pinned SLOs.
func runSim(simCfg loadgen.SimConfig, seed uint64, requests int, spanNS int64, out string) error {
	slos := loadgen.SimSLOs(simCfg)
	rep := &loadgen.Report{Mode: "sim", Seed: seed, Workers: simCfg.Workers,
		QueueCap: simCfg.QueueCap, Requests: requests, SpanNS: spanNS}
	for _, shape := range loadgen.Shapes {
		sched, err := loadgen.Schedule(loadgen.ScheduleConfig{
			Shape: shape, Requests: requests, SpanNS: spanNS, Seed: seed})
		if err != nil {
			return err
		}
		res, err := loadgen.Simulate(simCfg, sched, seed)
		if err != nil {
			return err
		}
		sr := loadgen.Gate(shape, requests, res.Latency,
			res.Accepted, res.Deduped, res.Rejected, res.Errors, slos[shape])
		sr.MaxQueueDepth = res.MaxQueueDepth
		sr.MaxRetryAfterS = res.MaxRetryAfterS
		rep.Shapes = append(rep.Shapes, sr)
		log.Printf("sim %-14s p50=%6.1fms p99=%6.1fms accepted=%d deduped=%d bounced=%d errors=%d pass=%v",
			shape, float64(sr.P50NS)/1e6, float64(sr.P99NS)/1e6,
			sr.Accepted, sr.Deduped, sr.Rejected429, sr.Errors, sr.Pass)
	}
	rep.Finalize()
	if err := rep.WriteFile(out); err != nil {
		return err
	}
	log.Printf("sim: wrote %s (pass=%v)", out, rep.Pass)
	if !rep.Pass {
		return errors.New("traffic gate failed")
	}
	return nil
}

// Package loadgen is the splash4d traffic lab: seeded, replayable load
// schedules in four shapes (steady, burst, diurnal, dedup-hostile), a
// deterministic virtual-clock simulator of the daemon's admission pipeline,
// and an SLO gate that turns latency percentiles and error budgets into a
// verdict (BENCH_traffic.json).
//
// The same seed always produces the same schedule and the same report
// bytes — the artifact is diffable across runs. The schedules also drive
// the real daemon: internal/server's retry-contract test replays the burst
// and dedup-hostile shapes against a Server over HTTP.
package loadgen

import (
	"fmt"
	"math"
)

// Shape names. Each is a distinct stress pattern for the admission path:
// steady exercises the happy path, burst the 429/Retry-After backpressure
// contract, diurnal slow capacity swings, and dedup-hostile the
// singleflight path (clumps of identical specs in flight together).
const (
	ShapeSteady       = "steady"
	ShapeBurst        = "burst"
	ShapeDiurnal      = "diurnal"
	ShapeDedupHostile = "dedup_hostile"
)

// Shapes lists every schedule shape in gate order.
var Shapes = []string{ShapeSteady, ShapeBurst, ShapeDiurnal, ShapeDedupHostile}

// Request is one scheduled submission.
type Request struct {
	// AtNS is the arrival offset from the run start, in nanoseconds.
	AtNS int64
	// SpecKey identifies the job spec for dedup purposes: requests sharing
	// a key are identical submissions the daemon may singleflight.
	SpecKey string
	// Seed distinguishes specs; requests with equal SpecKey share it.
	Seed int64
}

// ScheduleConfig sizes one shape's schedule.
type ScheduleConfig struct {
	Shape    string
	Requests int
	// SpanNS is the window the arrivals spread over.
	SpanNS int64
	// Seed drives every random choice in the schedule.
	Seed uint64
}

// Schedule builds the arrival list for one shape: sorted by arrival time,
// fully determined by the config.
func Schedule(cfg ScheduleConfig) ([]Request, error) {
	if cfg.Requests <= 0 || cfg.SpanNS <= 0 {
		return nil, fmt.Errorf("schedule needs positive requests and span (got %d, %d)", cfg.Requests, cfg.SpanNS)
	}
	r := newRNG(cfg.Seed)
	switch cfg.Shape {
	case ShapeSteady:
		return steadySchedule(cfg, r), nil
	case ShapeBurst:
		return burstSchedule(cfg, r), nil
	case ShapeDiurnal:
		return diurnalSchedule(cfg, r), nil
	case ShapeDedupHostile:
		return dedupSchedule(cfg, r), nil
	default:
		return nil, fmt.Errorf("unknown shape %q", cfg.Shape)
	}
}

// uniqueSpec gives request i its own spec key, defeating dedup so every
// arrival is a distinct job.
func uniqueSpec(shape string, i int) (string, int64) {
	return fmt.Sprintf("%s-%d", shape, i), int64(i + 1)
}

// steadySchedule spreads arrivals evenly with ±40% gap jitter: a constant
// offered rate with enough noise to avoid phase-locking with the workers.
func steadySchedule(cfg ScheduleConfig, r *rng) []Request {
	gap := cfg.SpanNS / int64(cfg.Requests)
	reqs := make([]Request, cfg.Requests)
	for i := range reqs {
		jitter := int64((r.float64() - 0.5) * 0.8 * float64(gap))
		key, seed := uniqueSpec(ShapeSteady, i)
		reqs[i] = Request{AtNS: clampAt(int64(i)*gap+jitter, cfg.SpanNS), SpecKey: key, Seed: seed}
	}
	sortByArrival(reqs)
	return reqs
}

// burstSchedule compresses 80% of the traffic into four bursts, each 2% of
// the span wide; the rest trickles across the window. The bursts are what
// overrun the admission ring and exercise 429 + Retry-After.
func burstSchedule(cfg ScheduleConfig, r *rng) []Request {
	const bursts = 4
	reqs := make([]Request, cfg.Requests)
	burstWidth := cfg.SpanNS / 50
	for i := range reqs {
		key, seed := uniqueSpec(ShapeBurst, i)
		var at int64
		if i%5 == 0 { // the 20% background trickle
			at = int64(r.float64() * float64(cfg.SpanNS))
		} else {
			b := r.intn(bursts)
			start := int64(b) * cfg.SpanNS / bursts
			at = start + int64(r.float64()*float64(burstWidth))
		}
		reqs[i] = Request{AtNS: clampAt(at, cfg.SpanNS), SpecKey: key, Seed: seed}
	}
	sortByArrival(reqs)
	return reqs
}

// diurnalSchedule modulates the arrival rate with one sine period across
// the span (rate ∝ 1 + 0.8·sin), sampled by inverse-CDF so the shape is
// exact, not approximate: a slow swell and ebb like a day of traffic.
func diurnalSchedule(cfg ScheduleConfig, r *rng) []Request {
	reqs := make([]Request, cfg.Requests)
	for i := range reqs {
		// Stratified u keeps the empirical distribution close to the target
		// density even at small request counts; the jitter term keeps
		// arrivals distinct.
		u := (float64(i) + r.float64()) / float64(cfg.Requests)
		key, seed := uniqueSpec(ShapeDiurnal, i)
		reqs[i] = Request{AtNS: clampAt(diurnalInvCDF(u, cfg.SpanNS), cfg.SpanNS), SpecKey: key, Seed: seed}
	}
	sortByArrival(reqs)
	return reqs
}

// diurnalInvCDF inverts the CDF of rate(t) = 1 + 0.8·sin(2πt/span) by
// bisection (the CDF is strictly increasing).
func diurnalInvCDF(u float64, spanNS int64) int64 {
	cdf := func(x float64) float64 { // x in [0,1], normalized time
		// ∫₀ˣ (1 + 0.8 sin 2πt) dt = x + (0.8/2π)(1 − cos 2πx); total mass 1.
		return x + 0.8/(2*math.Pi)*(1-math.Cos(2*math.Pi*x))
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int64(lo * float64(spanNS))
}

// dedupSchedule emits clumps of eight identical specs arriving within a
// tight window, spread across the span: while the first of a clump is
// still queued or running, the rest must be answered by singleflight.
func dedupSchedule(cfg ScheduleConfig, r *rng) []Request {
	const clump = 8
	reqs := make([]Request, cfg.Requests)
	clumps := (cfg.Requests + clump - 1) / clump
	for i := range reqs {
		c := i / clump
		start := int64(c) * cfg.SpanNS / int64(clumps)
		// The whole clump lands inside 1% of the span.
		at := start + int64(r.float64()*float64(cfg.SpanNS)/100)
		reqs[i] = Request{
			AtNS:    clampAt(at, cfg.SpanNS),
			SpecKey: fmt.Sprintf("%s-clump-%d", ShapeDedupHostile, c),
			Seed:    int64(c + 1),
		}
	}
	sortByArrival(reqs)
	return reqs
}

func clampAt(at, span int64) int64 {
	if at < 0 {
		return 0
	}
	if at >= span {
		return span - 1
	}
	return at
}

// sortByArrival is a simple stable insertion sort: schedules are small
// (thousands at most) and stability keeps equal-time orderings
// deterministic without pulling in sort.SliceStable's reflection.
func sortByArrival(reqs []Request) {
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].AtNS < reqs[j-1].AtNS; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
}

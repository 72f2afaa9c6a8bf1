package main

import (
	"fmt"
	"sync"
	"time"
)

// unitSet collects the times of a workload's units of work, by kind. A unit
// is what a user of that workload waits for: one program's timed region
// (suite_default), one million operations on one construct (sync_ops), one
// submitted job from POST to terminal event (daemon_submit, cluster_mixed).
// Every kind belongs to one kit, which is what lets all four workloads report
// the same end-to-end metrics.
type unitSet struct {
	mu    sync.Mutex
	kinds map[string]*unitKind
}

type unitKind struct {
	kit string
	ms  []float64
}

func newUnitSet() *unitSet { return &unitSet{kinds: make(map[string]*unitKind)} }

func (u *unitSet) add(kind, kit string, unitMS float64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	k := u.kinds[kind]
	if k == nil {
		k = &unitKind{kit: kit}
		u.kinds[kind] = k
	}
	k.ms = append(k.ms, unitMS)
}

// unitSummary is what the end-to-end metrics are made of.
type unitSummary struct {
	classicMS, lockfreeMS float64 // geomean over the kit's kinds of the kind's median
	p90MS                 float64 // 90th percentile of every unit time, all kinds pooled
	// tailMS is the highest percentile the pooled sample supports
	// (tailPercent), too unsteady on a shared 2-CPU host to carry a bound.
	tailMS, tailPercent float64
	samples             int
}

// summary reduces the unit times. The percentiles pool all kinds: for the job
// workloads, whose kinds share one distribution, they are the job latency's;
// for the suite they say how long nine program runs in ten take at most.
func (u *unitSet) summary() unitSummary {
	u.mu.Lock()
	defer u.mu.Unlock()
	var pooled []float64
	byKit := make(map[string][]float64)
	for _, k := range u.kinds {
		byKit[k.kit] = append(byKit[k.kit], median(k.ms))
		pooled = append(pooled, k.ms...)
	}
	s := unitSummary{
		classicMS:   geomean(byKit[kitClassic]),
		lockfreeMS:  geomean(byKit[kitLockfree]),
		p90MS:       percentile(pooled, 90),
		tailPercent: tailPercentile(len(pooled)),
		samples:     len(pooled),
	}
	s.tailMS = percentile(pooled, s.tailPercent)
	return s
}

// kindMedians returns each kind's median, for the per-layer report.
func (u *unitSet) kindMedians() map[string]float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[string]float64, len(u.kinds))
	for name, k := range u.kinds {
		out[name] = median(k.ms)
	}
	return out
}

// run is one pass of one workload: its inputs, and what it measured.
type run struct {
	seed   int64
	window time.Duration
	// tiny shrinks every fixed size so the tests can smoke each workload in
	// well under a second; it is never set from the command line.
	tiny bool
	// tr is nil in the untraced pass.
	tr *tracer
	// tmp is where journals go; the caller removes it.
	tmp string

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	units *unitSet
	host  *hostProbe
	// work and busy give work_per_s: units of work completed, and the wall
	// time they were completed in.
	work float64
	busy time.Duration
	// setups holds one set-up time per repetition, in seconds.
	setups []float64
	// layer holds the per-layer numbers of a traced pass.
	layer map[string]float64
	// notes are printed under the metrics (sample counts, fixed sizes).
	notes []string
}

func newRun(seed int64, window time.Duration, tr *tracer, tmp string) *run {
	return &run{seed: seed, window: window, tr: tr, tmp: tmp,
		units: newUnitSet(), host: newHostProbe(), layer: make(map[string]float64)}
}

// reps is how many times a workload repeats a set-up or a probe; the tests'
// tiny runs do everything once.
func (r *run) reps(n int) int {
	if r.tiny {
		return 1
	}
	return n
}

// us and ms render a duration in the metrics' units.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// check counts one correctness check. A failed check makes the command exit
// non-zero; the first few messages are printed.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *run) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLayer records one per-layer number; only traced passes keep them.
func (r *run) setLayer(name string, v float64) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layer[name] = v
}

// endToEnd returns the untraced pass's metrics by catalogue name.
func (r *run) endToEnd() map[string]float64 {
	s := r.units.summary()
	perS := 0.0
	if r.busy > 0 {
		perS = r.work / r.busy.Seconds()
	}
	alu, mem, syn := r.host.medians()
	return map[string]float64{
		"host_alu_us":  alu,
		"host_mem_us":  mem,
		"host_sync_us": syn,
		"setup_s":      median(r.setups),
		"classic_ms":   s.classicMS,
		"lockfree_ms":  s.lockfreeMS,
		"work_per_s":   perS,
		"p90_ms":       s.p90MS,
	}
}

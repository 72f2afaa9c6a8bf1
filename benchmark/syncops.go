package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/faulty"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

// sync_ops: the kit constructs alone. Every round times each cell once — a
// fixed number of operations on one freshly built object — and a cell's
// number is the median over the rounds. No Splash program runs.

const syncSetupReps = 5

// cellBody is one goroutine's share of a cell's timed loop.
type cellBody func(g int)

// construct describes one kit construct's loop. build makes the object
// (untimed) for `parties` goroutines doing `per` operations each, and returns
// the loop body and the post-condition that proves the construct worked.
type construct struct {
	name string
	// ops is the operation count of the uncontended loop, contendedOps the
	// total over both goroutines of the contended one: contended constructs
	// are up to 100x slower, and the round has to stay short.
	ops, contendedOps int
	build             func(k sync4.Kit, parties, per int) (cellBody, func() error)
}

// minmaxFeed is what the minmax loop feeds, fixed so the extremes are known.
var minmaxFeed = func() (feed [1024]float64) {
	for i := range feed {
		feed[i] = float64((i*7919)%1021) - 300
	}
	return feed
}()

var constructs = []construct{
	{name: "barrier", ops: 100_000, contendedOps: 2_000, build: buildBarrier},
	{name: "lock", ops: 100_000, contendedOps: 20_000, build: buildLock},
	{name: "counter", ops: 100_000, contendedOps: 20_000, build: buildCounter},
	{name: "accumulator", ops: 100_000, contendedOps: 20_000, build: buildAccumulator},
	{name: "minmax", ops: 100_000, contendedOps: 20_000, build: buildMinMax},
	{name: "flag", ops: 20_000, contendedOps: 5_000, build: buildFlag},
	{name: "queue", ops: 100_000, contendedOps: 20_000, build: buildQueue},
	{name: "stack", ops: 100_000, contendedOps: 20_000, build: buildStack},
}

// paddedInt keeps one goroutine's progress word off the other's cache line.
type paddedInt struct {
	v atomic.Int64
	_ [56]byte
}

// buildBarrier: every goroutine waits `per` times. With two parties each
// publishes its episode number before waiting and checks after waiting that
// the other had arrived at that episode too — the barrier's one guarantee.
func buildBarrier(k sync4.Kit, parties, per int) (cellBody, func() error) {
	b := k.NewBarrier(parties)
	arrived := make([]paddedInt, parties)
	early := make([]paddedInt, parties)
	body := func(g int) {
		if parties == 1 {
			for i := 0; i < per; i++ {
				b.Wait()
			}
			arrived[0].v.Store(int64(per))
			return
		}
		other := &arrived[1-g].v
		var bad int64
		for i := 1; i <= per; i++ {
			arrived[g].v.Store(int64(i))
			b.Wait()
			if other.Load() < int64(i) {
				bad++
			}
		}
		early[g].v.Store(bad)
	}
	post := func() error {
		for g := range arrived {
			if n := arrived[g].v.Load(); n != int64(per) {
				return fmt.Errorf("goroutine %d finished %d barrier episodes, want %d", g, n, per)
			}
			if n := early[g].v.Load(); n != 0 {
				return fmt.Errorf("goroutine %d left the barrier %d times before the other arrived", g, n)
			}
		}
		return nil
	}
	return body, post
}

// buildLock: a plain integer incremented under the lock; lost updates show as
// a short count.
func buildLock(k sync4.Kit, parties, per int) (cellBody, func() error) {
	l := k.NewLock()
	shared := 0
	body := func(int) {
		for i := 0; i < per; i++ {
			l.Lock()
			shared++
			l.Unlock()
		}
	}
	return body, func() error {
		if shared != parties*per {
			return fmt.Errorf("lock-protected count is %d, want %d", shared, parties*per)
		}
		return nil
	}
}

func buildCounter(k sync4.Kit, parties, per int) (cellBody, func() error) {
	c := k.NewCounter()
	body := func(int) {
		for i := 0; i < per; i++ {
			c.Inc()
		}
	}
	return body, func() error { return wantCount(c, counterWant(parties*per)) }
}

// counterWant is the value a counter must hold after n increments.
func counterWant(n int) int64 {
	if breakCheck {
		return int64(n) + 1
	}
	return int64(n)
}

// breakCheck is set only by TestBrokenCheckFailsTheRun, to show that a wrong
// post-condition makes the command exit non-zero.
var breakCheck bool

func wantCount(c sync4.Counter, want int64) error {
	if got := c.Load(); got != want {
		return fmt.Errorf("counter holds %d, want %d", got, want)
	}
	return nil
}

// buildReadMostly is the counter under a 90 % Load / 10 % Add mix.
func buildReadMostly(k sync4.Kit, parties, per int) (cellBody, func() error) {
	c := k.NewCounter()
	sinks := make([]paddedInt, parties)
	body := func(g int) {
		var sink int64
		for i := 0; i < per; i++ {
			if i%10 == 0 {
				c.Add(1)
			} else {
				sink += c.Load()
			}
		}
		sinks[g].v.Store(sink)
	}
	adds := (per + 9) / 10
	return body, func() error { return wantCount(c, int64(parties*adds)) }
}

// buildAccumulator adds small integers, so the float64 sum is exact.
func buildAccumulator(k sync4.Kit, parties, per int) (cellBody, func() error) {
	a := k.NewAccumulator()
	body := func(int) {
		for i := 0; i < per; i++ {
			a.Add(float64(i&3 + 1))
		}
	}
	var want float64
	for i := 0; i < per; i++ {
		want += float64(i&3 + 1)
	}
	want *= float64(parties)
	return body, func() error {
		if got := a.Load(); got != want {
			return fmt.Errorf("accumulator holds %v, want %v", got, want)
		}
		return nil
	}
}

func buildMinMax(k sync4.Kit, _, per int) (cellBody, func() error) {
	m := k.NewMinMax()
	body := func(int) {
		for i := 0; i < per; i++ {
			m.Update(minmaxFeed[i&1023])
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < min(per, len(minmaxFeed)); i++ {
		lo, hi = min(lo, minmaxFeed[i]), max(hi, minmaxFeed[i])
	}
	return body, func() error {
		if m.Min() != lo || m.Max() != hi {
			return fmt.Errorf("minmax holds [%v, %v], want [%v, %v]", m.Min(), m.Max(), lo, hi)
		}
		return nil
	}
}

// buildFlag: one flag per operation, since a flag is one-shot. Alone, a
// goroutine sets each and waits on it; with two, goroutine 0 sets and
// goroutine 1 waits.
func buildFlag(k sync4.Kit, parties, per int) (cellBody, func() error) {
	flags := make([]sync4.Flag, per)
	for i := range flags {
		flags[i] = k.NewFlag()
	}
	body := func(g int) {
		for _, f := range flags {
			if parties == 1 || g == 0 {
				f.Set()
			}
			if parties == 1 || g == 1 {
				f.Wait()
			}
		}
	}
	return body, func() error {
		for i, f := range flags {
			if !f.IsSet() {
				return fmt.Errorf("flag %d is not set after Set and Wait", i)
			}
		}
		return nil
	}
}

// buildQueue: alone, each operation is a TryPut and the TryGet that takes it
// back; with two, goroutine 0 puts and goroutine 1 gets. Either way every
// value must come out once, in order, and the queue must end empty.
func buildQueue(k sync4.Kit, parties, per int) (cellBody, func() error) {
	q := k.NewQueue(1024)
	var bad paddedInt
	body := func(g int) {
		var wrong int64
		switch {
		case parties == 1:
			for i := 0; i < per; i++ {
				if !q.TryPut(int64(i)) {
					wrong++
				}
				if v, ok := q.TryGet(); !ok || v != int64(i) {
					wrong++
				}
			}
		case g == 0:
			for i := 0; i < per; i++ {
				q.Put(int64(i))
			}
		default:
			for next := int64(0); next < int64(per); {
				v, ok := q.TryGet()
				if !ok {
					runtime.Gosched() // empty: let the producer run
					continue
				}
				if v != next {
					wrong++
				}
				next++
			}
		}
		bad.v.Add(wrong)
	}
	return body, func() error {
		if n := bad.v.Load(); n != 0 {
			return fmt.Errorf("queue returned %d wrong or missing values", n)
		}
		if n := q.Len(); n != 0 {
			return fmt.Errorf("queue holds %d values after draining", n)
		}
		return nil
	}
}

// buildStack: each operation pushes a value and pops one. With two goroutines
// a pop may take the other's value, so the check is on the totals.
func buildStack(k sync4.Kit, parties, per int) (cellBody, func() error) {
	s := k.NewStack()
	var popped paddedInt
	body := func(g int) {
		var sum int64
		for i := 1; i <= per; i++ {
			s.Push(int64(i))
			for {
				v, ok := s.TryPop()
				if ok {
					sum += v
					break
				}
				runtime.Gosched() // the other goroutine holds our value
			}
		}
		popped.v.Add(sum)
	}
	want := int64(parties) * int64(per) * int64(per+1) / 2
	return body, func() error {
		if got := popped.v.Load(); got != want {
			return fmt.Errorf("stack popped a total of %d, want %d", got, want)
		}
		if n := s.Len(); n != 0 {
			return fmt.Errorf("stack holds %d values after draining", n)
		}
		return nil
	}
}

// timeCell builds one cell, runs its loop with the collector off, checks the
// post-condition and returns nanoseconds per operation.
func (r *run) timeCell(label string, c construct, k sync4.Kit, parties, ops int) float64 {
	per := ops / parties
	body, post := c.build(k, parties, per)
	start := time.Now()
	if parties == 1 {
		body(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(1)
		}()
		body(0)
		wg.Wait()
	}
	end := time.Now()
	r.tr.add(label, "sync4."+label, 0, start, end)
	err := post()
	r.check(err == nil, "%s: %v", label, err)
	return float64(end.Sub(start).Nanoseconds()) / float64(per*parties)
}

// constructSetNS times building one of each construct.
func constructSetNS(k sync4.Kit) float64 {
	const sets = 200
	start := time.Now()
	for i := 0; i < sets; i++ {
		k.NewBarrier(2)
		k.NewLock()
		k.NewCounter()
		k.NewAccumulator()
		k.NewMinMax()
		k.NewFlag()
		k.NewQueue(64)
		k.NewStack()
	}
	return float64(time.Since(start).Nanoseconds()) / sets
}

func runSyncOps(r *run) error {
	cons := constructs
	if r.tiny {
		cons = nil
		for _, c := range constructs {
			c.ops, c.contendedOps = 400, 100
			cons = append(cons, c)
		}
	}
	readMostly := construct{name: "counter", ops: cons[0].ops, contendedOps: cons[0].contendedOps, build: buildReadMostly}

	// Set-up: the kits and wrappers, one construct set per kit, and one
	// untimed pass over every uncontended cell so the timed rounds start warm.
	var kits []sync4.Kit
	var rec *trace.Recorder
	var wrapped [3]sync4.Kit
	wrapNames := [3]string{"instrument", "trace", "faulty_mild"}
	// A traced operation costs about 20 bare ones and faulty.Mild sleeps on
	// every 16th injected delay, so their loops are shorter to keep the
	// round short.
	wrapShrink := [3]int{1, 5, 25}
	setSamples := map[string][]float64{}
	for rep := 0; rep < r.reps(syncSetupReps); rep++ {
		start := time.Now()
		kits = []sync4.Kit{classic.New(), lockfree.New()}
		// The daemon's recorder geometry for a 2-thread job.
		rec = trace.NewRecorder(6, 1<<16)
		wrapped = [3]sync4.Kit{
			sync4.Instrument(kits[1], new(sync4.Counters), false),
			sync4.Trace(kits[1], rec),
			faulty.New(faulty.Mild(r.seed)).Wrap(kits[1]),
		}
		for _, k := range kits {
			setSamples[k.Name()] = append(setSamples[k.Name()], constructSetNS(k))
			for _, c := range cons {
				body, _ := c.build(k, 1, c.ops)
				body(0)
			}
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}

	// Samples in ns per operation, by cell: bare kits, then wrapped lockfree.
	cells, taxed := map[string][]float64{}, map[string][]float64{}
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	began := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(began) < r.window; rounds++ {
		// Cells build their objects as they go; collect once per round, with
		// the collector otherwise off, so no cycle lands inside a timed loop.
		runtime.GC()
		for _, k := range kits {
			r.host.sample()
			for _, c := range cons {
				label := k.Name() + "." + c.name
				ns := r.timeCell(label+".ns_op", c, k, 1, c.ops)
				cells[label+".ns_op"] = append(cells[label+".ns_op"], ns)
				// One unit of work is a million operations: its time in ms
				// is the operation's time in ns.
				r.units.add(label, k.Name(), ns)
				r.work += float64(c.ops)
				r.busy += time.Duration(ns * float64(c.ops))

				ns = r.timeCell(label+".contended_ns_op", c, k, 2, c.contendedOps)
				cells[label+".contended_ns_op"] = append(cells[label+".contended_ns_op"], ns)
			}
			label := k.Name() + ".counter.readmostly_ns_op"
			cells[label] = append(cells[label], r.timeCell(label, readMostly, k, 1, readMostly.ops))
		}
		for w, k := range wrapped {
			for _, c := range cons {
				rec.Reset()
				label := wrapNames[w] + "." + c.name
				taxed[label] = append(taxed[label], r.timeCell(label+".ns_op", c, k, 1, c.ops/wrapShrink[w]))
			}
		}
	}
	r.note("rounds=%d ops_per_loop=%d contended_ops_per_loop=%d (barrier %d, flag %d/%d)",
		rounds, cons[1].ops, cons[1].contendedOps, cons[0].contendedOps, cons[5].ops, cons[5].contendedOps)

	for name, xs := range cells {
		r.setLayer("sync4."+name, median(xs))
	}
	for kit, xs := range setSamples {
		r.setLayer("sync4."+kit+".construct_set_ns", median(xs))
	}
	for _, w := range wrapNames {
		var ratios []float64
		for _, c := range cons {
			ratios = append(ratios, median(taxed[w+"."+c.name])/median(cells[kitLockfree+"."+c.name+".ns_op"]))
		}
		r.setLayer("sync4."+w+".tax", geomean(ratios))
	}
	return nil
}

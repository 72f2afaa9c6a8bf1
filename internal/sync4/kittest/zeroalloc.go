package kittest

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sync4"
)

// ZeroAllocProbes builds one self-contained, non-blocking exercise per
// //sync4:zeroalloc-annotated construct operation, keyed "family.Method"
// (e.g. "barrier.Wait", "queue.TryGet"). Each probe is single-goroutine and
// leaves its construct ready for the next run, so it can sit directly under
// testing.AllocsPerRun. The probes deliberately take the fast, uncontended
// path — the zero-alloc contract is about steady state, not about proving
// liveness (the conformance and chaos suites do that).
//
//sync4:req SYNC4-ALLOC-002 v1 SHOULD Construct factory methods preallocate everything their operations need, so steady-state probes can run back-to-back with no per-operation setup.
func ZeroAllocProbes(kit sync4.Kit) map[string]func() {
	b := kit.NewBarrier(1) // single-party barrier: Wait returns immediately
	l := kit.NewLock()
	c := kit.NewCounter()
	a := kit.NewAccumulator()
	m := kit.NewMinMax()
	f := kit.NewFlag()
	f.Set() // pre-set: Wait takes the fast path
	q := kit.NewQueue(4)
	s := kit.NewStack()

	lockPair := func() { l.Lock(); l.Unlock() }
	putGet := func() {
		q.Put(7)
		if _, ok := q.TryGet(); !ok {
			panic("kittest: queue lost an element under the zero-alloc probe")
		}
	}
	return map[string]func(){
		"barrier.Wait":  func() { b.Wait() },
		"lock.Lock":     lockPair,
		"lock.Unlock":   lockPair,
		"counter.Add":   func() { c.Add(3) },
		"counter.Inc":   func() { c.Inc() },
		"counter.Load":  func() { c.Load() },
		"counter.Store": func() { c.Store(11) },
		"accum.Add":     func() { a.Add(1.5) },
		"accum.Load":    func() { a.Load() },
		"accum.Store":   func() { a.Store(2.5) },
		"minmax.Update": func() { m.Update(3.25) },
		"minmax.Min":    func() { m.Min() },
		"minmax.Max":    func() { m.Max() },
		"flag.Set":      func() { f.Set() },
		"flag.Wait":     func() { f.Wait() },
		"flag.IsSet":    func() { f.IsSet() },
		"queue.Put":     putGet,
		"queue.TryPut": func() {
			if !q.TryPut(9) {
				panic("kittest: queue full under the zero-alloc probe")
			}
			q.TryGet()
		},
		"queue.TryGet": putGet,
		"queue.Len":    func() { q.Len() },
		"stack.TryPop": func() { s.TryPop() }, // empty stack: immediate miss
		"stack.Len":    func() { s.Len() },
	}
}

// ZeroAlloc runs every probe under testing.AllocsPerRun and fails on any
// nonzero average. It is the dynamic counterpart of splash4-vet's zeroalloc
// analyzer: the analyzer proves no allocation site is statically reachable,
// this proves the dynamic paths (interface dispatch the analyzer cannot
// follow) allocate nothing either.
//
//sync4:req SYNC4-ALLOC-001 v1 MUST Steady-state fast-path construct operations (uncontended waits, counter updates, queue and stack transfers) perform zero heap allocations per operation.
//sync4:covers SYNC4-ALLOC-002
func ZeroAlloc(t *testing.T, kit sync4.Kit) {
	t.Helper()
	probes := ZeroAllocProbes(kit)
	keys := make([]string, 0, len(probes))
	for k := range probes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		k := k
		t.Run("zeroalloc/"+k, func(t *testing.T) {
			// One call under the watchdog first: a probe that blocks fails
			// here instead of hanging AllocsPerRun.
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				probes[k]()
			}()
			awaitEpisodes(t, k, &wg, make([]atomic.Int64, 1))
			if avg := testing.AllocsPerRun(100, probes[k]); avg != 0 {
				t.Errorf("%s: %.1f allocs per op; want 0", k, avg)
			}
		})
	}
}

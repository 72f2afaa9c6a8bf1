// Package kittest provides a reusable conformance suite for sync4.Kit
// implementations. Both the classic and the lockfree kits must pass exactly
// the same behavioral contract; running one suite over both keeps them
// interchangeable inside the workloads.
package kittest

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sync4"
)

// Conformance runs the full behavioral contract against kit.
//
//sync4:req SYNC4-KIT-001 v1 MUST A kit's constructs interoperate: any mix of barriers, counters, locks, queues and stacks obtained from one kit satisfies the full behavioral contract when used together in one workload.
//sync4:covers SYNC4-KIT-002 SYNC4-KIT-003
func Conformance(t *testing.T, kit sync4.Kit) {
	t.Helper()
	t.Run("BarrierRoundTrips", func(t *testing.T) { testBarrier(t, kit) })
	t.Run("BarrierSingle", func(t *testing.T) { testBarrierSingle(t, kit) })
	t.Run("LockMutualExclusion", func(t *testing.T) { testLock(t, kit) })
	t.Run("CounterConcurrent", func(t *testing.T) { testCounter(t, kit) })
	t.Run("CounterSemantics", func(t *testing.T) { testCounterSemantics(t, kit) })
	t.Run("AccumulatorConcurrent", func(t *testing.T) { testAccumulator(t, kit) })
	t.Run("AccumulatorQuick", func(t *testing.T) { testAccumulatorQuick(t, kit) })
	t.Run("MinMax", func(t *testing.T) { testMinMax(t, kit) })
	t.Run("MinMaxQuick", func(t *testing.T) { testMinMaxQuick(t, kit) })
	t.Run("Flag", func(t *testing.T) { testFlag(t, kit) })
	t.Run("QueueFIFO", func(t *testing.T) { testQueueFIFO(t, kit) })
	t.Run("QueueCapacity", func(t *testing.T) { testQueueCapacity(t, kit) })
	t.Run("QueueCapacityOne", func(t *testing.T) { testQueueCapacityOne(t, kit) })
	t.Run("QueuePutBlocksUntilDrained", func(t *testing.T) { testQueuePutBlocks(t, kit) })
	t.Run("QueueConcurrent", func(t *testing.T) { testQueueConcurrent(t, kit) })
	t.Run("StackLIFO", func(t *testing.T) { testStackLIFO(t, kit) })
	t.Run("StackConcurrent", func(t *testing.T) { testStackConcurrent(t, kit) })
}

// testBarrier checks that no participant can start episode e+1 before all
// have finished episode e: each thread writes to a per-episode counter and
// after the barrier asserts everyone has written.
//
//sync4:req SYNC4-BARRIER-001 v1 MUST A barrier for n participants releases no Wait call of episode e until all n participants of episode e have arrived.
//sync4:req SYNC4-BARRIER-002 v1 MUST A barrier is reusable: consecutive episodes synchronize the same group again with no reinitialization.
func testBarrier(t *testing.T, kit sync4.Kit) {
	const threads = 8
	const episodes = 50
	b := kit.NewBarrier(threads)
	counters := make([]sync4.Counter, episodes)
	for i := range counters {
		counters[i] = kit.NewCounter()
	}
	var wg sync.WaitGroup
	reached := make([]atomic.Int64, threads)
	errs := make(chan string, threads*episodes)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				reached[tid].Store(int64(e))
				counters[e].Inc()
				b.Wait()
				if got := counters[e].Load(); got != threads {
					// Keep going: a participant that quits strands the
					// rest in the next episode.
					errs <- "barrier released before all arrived"
				}
				b.Wait() // separate the check from the next episode's increments
			}
		}()
	}
	awaitEpisodes(t, "barrier", &wg, reached)
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// stuckTimeout bounds a case that can block, so that a lost release fails
// the test and names its episode instead of hanging the test binary.
const stuckTimeout = 10 * time.Second

// awaitEpisodes waits for wg, or fails t once stuckTimeout passes with the
// lowest episode of what some participant is stuck in; reached[i] is the
// episode participant i last entered. The stuck goroutines are leaked.
func awaitEpisodes(t *testing.T, what string, wg *sync.WaitGroup, reached []atomic.Int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(stuckTimeout):
		eps := make([]int64, len(reached))
		for i := range reached {
			eps[i] = reached[i].Load()
		}
		t.Fatalf("%s episode %d not released after %v (participants' episodes %v)",
			what, slices.Min(eps), stuckTimeout, eps)
	}
}

//sync4:req SYNC4-BARRIER-003 v1 MUST A single-participant barrier's Wait returns immediately, every episode, without deadlock.
func testBarrierSingle(t *testing.T, kit sync4.Kit) {
	b := kit.NewBarrier(1)
	var wg sync.WaitGroup
	reached := make([]atomic.Int64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := 0; e < 100; e++ {
			reached[0].Store(int64(e))
			b.Wait() // must not deadlock
		}
	}()
	awaitEpisodes(t, "single-party barrier", &wg, reached)
}

// Each holder counts itself in and out of the critical section, so a
// second holder is caught the moment it walks in, not only through a lost
// update. Every holder yields inside the section, so the others pile up
// in Lock and the window a broken acquire needs opens on every handoff.
// A holder whose Unlock panics (the lock-free kit's check for a double
// release) stops and is reported too.
//
//sync4:req SYNC4-LOCK-001 v1 MUST A lock provides mutual exclusion: plain read-modify-write updates to shared memory performed inside Lock/Unlock lose no updates under concurrency.
func testLock(t *testing.T, kit sync4.Kit) {
	const threads = 8
	const iters = 5000
	l := kit.NewLock()
	shared := 0 // deliberately unsynchronized except by l
	var inside, overlaps, panics atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panics.Add(1)
				}
			}()
			for j := 0; j < iters; j++ {
				l.Lock()
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				shared++
				runtime.Gosched()
				inside.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("mutual exclusion violated: %d acquisitions found another holder inside the section", n)
	}
	if n := panics.Load(); n > 0 {
		t.Fatalf("%d holders' Unlock panicked under contention", n)
	}
	if shared != threads*iters {
		t.Fatalf("lost updates under lock: got %d want %d", shared, threads*iters)
	}
}

//sync4:req SYNC4-COUNTER-001 v1 MUST Concurrent Counter.Inc calls are linearizable: n threads performing k increments each leave the counter at exactly n*k.
func testCounter(t *testing.T, kit sync4.Kit) {
	const threads = 8
	const iters = 5000
	c := kit.NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != threads*iters {
		t.Fatalf("counter: got %d want %d", got, threads*iters)
	}
}

//sync4:req SYNC4-COUNTER-002 v1 MUST Counter.Add returns the post-update value, Inc is equivalent to Add(1), negative deltas decrement, and Load observes the value of a preceding Store.
func testCounterSemantics(t *testing.T, kit sync4.Kit) {
	c := kit.NewCounter()
	if got := c.Add(5); got != 5 {
		t.Fatalf("Add(5) returned %d, want 5", got)
	}
	if got := c.Inc(); got != 6 {
		t.Fatalf("Inc returned %d, want 6", got)
	}
	if got := c.Add(-10); got != -4 {
		t.Fatalf("Add(-10) returned %d, want -4", got)
	}
	c.Store(42)
	if got := c.Load(); got != 42 {
		t.Fatalf("after Store(42), Load = %d", got)
	}
}

//sync4:req SYNC4-ACCUM-001 v1 MUST Concurrent Accumulator.Add calls lose no contribution: the final sum equals the exact sum of every added value when all addends are equal (no rounding ambiguity).
func testAccumulator(t *testing.T, kit sync4.Kit) {
	const threads = 8
	const iters = 2000
	a := kit.NewAccumulator()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				a.Add(0.5)
			}
		}(i)
	}
	wg.Wait()
	want := float64(threads*iters) * 0.5
	if got := a.Load(); got != want {
		t.Fatalf("accumulator: got %g want %g", got, want)
	}
}

// testAccumulatorQuick property: accumulating any float slice sequentially
// through the construct equals the plain fold (no reordering happens with a
// single goroutine, so the result must be exact).
//
//sync4:req SYNC4-ACCUM-002 v1 MUST Single-goroutine accumulation is exact: folding any finite float64 sequence through Add equals the plain sequential sum bit-for-bit.
func testAccumulatorQuick(t *testing.T, kit sync4.Kit) {
	f := func(xs []float64) bool {
		a := kit.NewAccumulator()
		var want float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			a.Add(x)
			want += x
		}
		return a.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

//sync4:req SYNC4-MINMAX-001 v1 MUST Concurrent MinMax.Update calls converge to the global extrema of all submitted values, and Reset restores Min to +Inf and Max to -Inf.
func testMinMax(t *testing.T, kit sync4.Kit) {
	const threads = 8
	m := kit.NewMinMax()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Update(float64(tid*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if got := m.Min(); got != 0 {
		t.Fatalf("min: got %g want 0", got)
	}
	if got := m.Max(); got != float64(threads-1)*1000+999 {
		t.Fatalf("max: got %g want %g", got, float64(threads-1)*1000+999)
	}
	m.Reset()
	if !math.IsInf(m.Min(), 1) || !math.IsInf(m.Max(), -1) {
		t.Fatalf("after reset: min=%g max=%g", m.Min(), m.Max())
	}
}

//sync4:req SYNC4-MINMAX-002 v1 MUST Sequential MinMax tracking is exact for any finite float64 sequence, NaN inputs excluded.
func testMinMaxQuick(t *testing.T, kit sync4.Kit) {
	f := func(xs []float64) bool {
		m := kit.NewMinMax()
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			m.Update(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return m.Min() == lo && m.Max() == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

//sync4:req SYNC4-FLAG-001 v1 MUST A flag is created unset and IsSet reports false until Set is called.
//sync4:req SYNC4-FLAG-002 v1 MUST Flag.Set releases every current and future waiter, and no Wait returns before Set.
//sync4:req SYNC4-FLAG-003 v1 MUST Flag.Wait on an already-set flag returns immediately.
func testFlag(t *testing.T, kit sync4.Kit) {
	f := kit.NewFlag()
	if f.IsSet() {
		t.Fatal("flag set at creation")
	}
	const waiters = 8
	var wg sync.WaitGroup
	release := kit.NewCounter()
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Wait()
			release.Inc()
		}()
	}
	f.Set()
	wg.Wait()
	if got := release.Load(); got != waiters {
		t.Fatalf("released %d of %d waiters", got, waiters)
	}
	if !f.IsSet() {
		t.Fatal("flag not set after Set")
	}
	f.Wait() // waiting on a set flag returns immediately
}

//sync4:req SYNC4-QUEUE-001 v1 MUST A queue dequeues single-threaded elements in FIFO order, Len reports the enqueued count, and TryGet on an empty queue reports false.
func testQueueFIFO(t *testing.T, kit sync4.Kit) {
	q := kit.NewQueue(16)
	for i := int64(0); i < 10; i++ {
		q.Put(i)
	}
	if got := q.Len(); got != 10 {
		t.Fatalf("len: got %d want 10", got)
	}
	for i := int64(0); i < 10; i++ {
		v, ok := q.TryGet()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
}

//sync4:req SYNC4-QUEUE-002 v1 MUST A queue accepts at least its requested capacity, TryPut reports full after finitely many accepts, and draining recovers the space.
func testQueueCapacity(t *testing.T, kit sync4.Kit) {
	q := kit.NewQueue(4)
	n := 0
	for q.TryPut(int64(n)) {
		n++
		if n > 1024 {
			t.Fatal("queue never reported full")
		}
	}
	if n < 4 {
		t.Fatalf("queue full after %d < capacity 4 elements", n)
	}
	// Draining recovers the space.
	for i := 0; i < n; i++ {
		if _, ok := q.TryGet(); !ok {
			t.Fatalf("drain stalled at %d of %d", i, n)
		}
	}
	if !q.TryPut(99) {
		t.Fatal("queue still full after drain")
	}
}

// testQueueCapacityOne guards the degenerate bound. Kits may round the
// capacity up (the lock-free ring needs at least two slots), but the queue
// must still report full after finitely many accepts and must hand back
// every element it accepted — a one-slot Vyukov ring fails the second part
// by silently overwriting the pending element.
//
//sync4:req SYNC4-QUEUE-003 v1 MUST A capacity-1 queue hands back, in order, every element it accepted; rounded-up capacity never excuses overwriting a pending element.
func testQueueCapacityOne(t *testing.T, kit sync4.Kit) {
	q := kit.NewQueue(1)
	var put []int64
	for i := int64(0); q.TryPut(i); i++ {
		put = append(put, i)
		if len(put) > 16 {
			t.Fatal("capacity-1 queue never reported full")
		}
	}
	if len(put) == 0 {
		t.Fatal("capacity-1 queue accepted nothing")
	}
	for i, want := range put {
		v, ok := q.TryGet()
		if !ok {
			t.Fatalf("accepted %d elements but drain stalled at %d: element lost", len(put), i)
		}
		if v != want {
			t.Fatalf("drain[%d]: got %d want %d", i, v, want)
		}
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("drained queue still yields elements")
	}
}

// testQueuePutBlocks fills a queue, starts a producer that must block in
// Put, then drains one slot and checks the producer's value arrives.
//
//sync4:req SYNC4-QUEUE-004 v1 MUST Queue.Put on a full queue blocks until space frees, then completes, and the blocked value is eventually dequeued.
func testQueuePutBlocks(t *testing.T, kit sync4.Kit) {
	q := kit.NewQueue(2)
	for q.TryPut(1) {
	}
	done := make(chan struct{})
	go func() {
		q.Put(99) // must block until a slot frees
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put returned while the queue was full")
	default:
	}
	// Drain everything; 99 must eventually come out and Put must return.
	var saw99 bool
	deadline := make(chan struct{})
	go func() {
		defer close(deadline)
		for i := 0; i < 1000000; i++ {
			v, ok := q.TryGet()
			if ok && v == 99 {
				saw99 = true
				return
			}
			if !ok {
				runtime.Gosched() // let the blocked producer run
			}
		}
	}()
	<-deadline
	<-done
	if !saw99 {
		t.Fatal("blocked Put's value never dequeued")
	}
}

//sync4:req SYNC4-QUEUE-005 v1 MUST Under concurrent multi-producer multi-consumer use, a queue neither loses nor duplicates elements: the consumed multiset equals the produced multiset.
func testQueueConcurrent(t *testing.T, kit sync4.Kit) {
	const producers = 4
	const consumers = 4
	const perProducer = 2500
	q := kit.NewQueue(64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Put(int64(p*perProducer + i))
			}
		}(p)
	}
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			var local []int64
			for {
				v, ok := q.TryGet()
				if ok {
					local = append(local, v)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain whatever is left.
					for {
						v, ok := q.TryGet()
						if !ok {
							mu.Lock()
							got = append(got, local...)
							mu.Unlock()
							return
						}
						local = append(local, v)
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()

	want := producers * perProducer
	if len(got) != want {
		t.Fatalf("consumed %d values, want %d", len(got), want)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("value set corrupted at %d: got %d", i, v)
		}
	}
}

//sync4:req SYNC4-STACK-001 v1 MUST A stack pops single-threaded elements in LIFO order, Len reports the number of elements held after every push and every pop, and TryPop on an empty stack reports false.
func testStackLIFO(t *testing.T, kit sync4.Kit) {
	s := kit.NewStack()
	if got := s.Len(); got != 0 {
		t.Fatalf("len of a new stack: got %d want 0", got)
	}
	for i := int64(0); i < 10; i++ {
		s.Push(i)
		if got := s.Len(); got != int(i)+1 {
			t.Fatalf("len after %d pushes: got %d", i+1, got)
		}
	}
	for i := int64(9); i >= 0; i-- {
		v, ok := s.TryPop()
		if !ok || v != i {
			t.Fatalf("pop: got (%d,%v) want (%d,true)", v, ok, i)
		}
		if got := s.Len(); got != int(i) {
			t.Fatalf("len after popping %d: got %d want %d", v, got, i)
		}
	}
	if _, ok := s.TryPop(); ok {
		t.Fatal("TryPop on empty stack succeeded")
	}
}

//sync4:req SYNC4-STACK-002 v1 MUST Under concurrent push/pop pressure, a stack neither loses nor duplicates elements: drained values form the exact pushed set, and Len reads 0 once drained.
func testStackConcurrent(t *testing.T, kit sync4.Kit) {
	const threads = 8
	const perThread = 2500
	s := kit.NewStack()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var got []int64
	for p := 0; p < threads; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var local []int64
			for i := 0; i < perThread; i++ {
				s.Push(int64(p*perThread + i))
				if v, ok := s.TryPop(); ok {
					local = append(local, v)
				}
			}
			mu.Lock()
			got = append(got, local...)
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	// Drain leftovers.
	for {
		v, ok := s.TryPop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("drained stack reports Len %d, want 0", n)
	}
	want := threads * perThread
	if len(got) != want {
		t.Fatalf("popped %d values, want %d", len(got), want)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("value set corrupted at index %d: got %d", i, v)
		}
	}
}

// Package lockfree implements the Splash-4 style synchronization kit: the
// same constructs as package classic, rebuilt on atomic operations. Counters
// become fetch-and-add, floating-point reductions become compare-and-swap
// retry loops on the bit pattern, flags become atomic booleans with bounded
// spinning, barriers become ticket barriers, and the task structures become
// a Vyukov bounded MPMC ring and a Treiber stack. Each construct's comment
// states its progress guarantee: the barrier, flag and lock block. Go has no
// atomic floats, so the CAS loops are Splash-4's own for targets without them.
package lockfree

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/sync4"
)

// spinBudget is how many busy iterations a waiter performs between yields to
// the Go scheduler. Pure spinning starves other goroutines when threads
// exceed GOMAXPROCS; yielding every so often approximates the
// spin-then-yield discipline of the original pthread spin waits.
const spinBudget = 64

// yieldEagerly is set when the runtime has so few processors that busy
// waiting can only steal time from the goroutine being waited on. The
// original suite assumes one pinned thread per core; on a starved runtime
// the closest faithful behavior is immediate cooperative yielding.
var yieldEagerly = runtime.GOMAXPROCS(0) <= 2

// pause performs one step of a spin-wait, yielding every spinBudget steps
// (every step on near-single-processor runtimes).
func pause(i *int) {
	*i++
	if yieldEagerly || *i%spinBudget == 0 {
		runtime.Gosched()
	}
}

// Kit is the lock-free synchronization kit. The zero value is ready to use.
type Kit struct{}

// New returns the lockfree kit.
func New() Kit { return Kit{} }

// Name implements sync4.Kit.
func (Kit) Name() string { return "lockfree" }

// NewBarrier implements sync4.Kit.
func (Kit) NewBarrier(n int) sync4.Barrier {
	if n < 1 {
		panic("lockfree: barrier size must be >= 1")
	}
	return &barrier{n: uint64(n)}
}

// NewLock implements sync4.Kit.
func (Kit) NewLock() sync4.Locker { return new(spinLock) }

// NewCounter implements sync4.Kit.
func (Kit) NewCounter() sync4.Counter { return new(counter) }

// NewAccumulator implements sync4.Kit.
func (Kit) NewAccumulator() sync4.Accumulator { return new(accumulator) }

// NewMinMax implements sync4.Kit.
func (Kit) NewMinMax() sync4.MinMax {
	m := new(minmax)
	m.Reset()
	return m
}

// NewFlag implements sync4.Kit.
func (Kit) NewFlag() sync4.Flag { return new(flag) }

// NewQueue implements sync4.Kit.
func (Kit) NewQueue(capacity int) sync4.Queue {
	if capacity < 1 {
		panic("lockfree: queue capacity must be >= 1")
	}
	return newQueue(capacity)
}

// NewStack implements sync4.Kit.
func (Kit) NewStack() sync4.Stack { return new(stack) }

// barrier is a ticket barrier: count is never reset, so episode e's arrivals
// draw tickets e·n+1 … (e+1)·n. Each reads release (episodes done) first and
// sees e, which cannot advance before its ticket is drawn. Ticket (e+1)·n
// publishes e+1 with one store; the rest spin on release. Progress: blocking.
type barrier struct {
	n     uint64
	count atomic.Uint64
	// Arrivals hammer count with fetch-and-add while earlier arrivals spin
	// on release; keeping the two words on separate cache lines stops each
	// arrival from stealing the line out from under every spinner.
	_       [48]byte
	release atomic.Uint64
}

//sync4:zeroalloc
func (b *barrier) Wait() {
	e := b.release.Load()
	if b.count.Add(1) == (e+1)*b.n {
		b.release.Store(e + 1)
		return
	}
	for spins := 0; b.release.Load() == e; {
		pause(&spins)
	}
}

// spinLock is a test-and-test-and-set lock with scheduler-friendly backoff,
// the Go equivalent of the pthread spinlocks Splash-4 keeps for its few
// irreducible critical sections. Lock tries one CAS, as sync.Mutex does,
// before its load-then-CAS loop. Progress: blocking.
type spinLock struct {
	state atomic.Int32
}

//sync4:zeroalloc
func (l *spinLock) Lock() {
	if l.state.CompareAndSwap(0, 1) {
		return
	}
	for spins := 0; l.state.Load() != 0 || !l.state.CompareAndSwap(0, 1); {
		pause(&spins)
	}
}

//sync4:zeroalloc
func (l *spinLock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("lockfree: unlock of unlocked spinLock")
	}
}

// counter is a fetch-and-add word. Progress: wait-free.
type counter struct {
	v atomic.Int64
}

//sync4:zeroalloc
func (c *counter) Add(delta int64) int64 { return c.v.Add(delta) }

//sync4:zeroalloc
func (c *counter) Inc() int64 { return c.v.Add(1) }

//sync4:zeroalloc
func (c *counter) Load() int64 { return c.v.Load() }

//sync4:zeroalloc
func (c *counter) Store(v int64) { c.v.Store(v) }

// accumulator adds float64 values with a CAS loop on the bit pattern.
// Progress: lock-free.
type accumulator struct {
	bits atomic.Uint64
}

//sync4:zeroalloc
func (a *accumulator) Add(v float64) {
	for {
		old := a.bits.Load()
		cur := math.Float64frombits(old)
		if a.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

//sync4:zeroalloc
func (a *accumulator) Load() float64 { return math.Float64frombits(a.bits.Load()) }

//sync4:zeroalloc
func (a *accumulator) Store(v float64) { a.bits.Store(math.Float64bits(v)) }

// minmax tracks min and max in two CAS'd words. The loops terminate early
// when the stored value is already at least as extreme, so uncontended
// reads of a stable extreme cost one load. Progress: lock-free.
type minmax struct {
	minBits atomic.Uint64
	// The two extremes are CAS'd by disjoint retry loops — an update racing
	// on min never touches max and vice versa — so sharing a line would make
	// each loop's retries evict the other's.
	_       [56]byte
	maxBits atomic.Uint64
}

//sync4:zeroalloc
func (m *minmax) Update(v float64) {
	for {
		old := m.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if m.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := m.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if m.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

//sync4:zeroalloc
func (m *minmax) Min() float64 { return math.Float64frombits(m.minBits.Load()) }

//sync4:zeroalloc
func (m *minmax) Max() float64 { return math.Float64frombits(m.maxBits.Load()) }

func (m *minmax) Reset() {
	m.minBits.Store(math.Float64bits(math.Inf(1)))
	m.maxBits.Store(math.Float64bits(math.Inf(-1)))
}

// flag is an atomic boolean with spin-then-yield waiting. Progress: blocking.
type flag struct {
	set atomic.Bool
}

//sync4:zeroalloc
func (f *flag) Set() { f.set.Store(true) }

//sync4:zeroalloc
func (f *flag) Wait() {
	spins := 0
	for !f.set.Load() {
		pause(&spins)
	}
}

//sync4:zeroalloc
func (f *flag) IsSet() bool { return f.set.Load() }

// queue is Vyukov's bounded MPMC ring buffer: each slot carries a sequence
// number that encodes whether it is ready to be written (seq == pos) or read
// (seq == pos+1), which lets producers and consumers claim slots with a
// single CAS each. Progress: not lock-free — a producer stalled between its
// enq CAS and seq.Store makes consumers read "empty" though later slots are full.
type queue struct {
	mask uint64
	buf  []slot
	_    [48]byte // keep enq and deq on separate cache lines
	enq  atomic.Uint64
	_    [56]byte
	deq  atomic.Uint64
}

type slot struct {
	seq atomic.Uint64
	val int64
	_   [48]byte // one slot per cache line to avoid false sharing
}

func newQueue(capacity int) *queue {
	// A one-slot ring cannot work: after an enqueue at pos the slot's
	// sequence is pos+1, which is exactly what the next enqueue (pos+1,
	// same slot) expects of a free slot, so a full ring is never detected
	// and the pending element is silently overwritten. Two slots is the
	// smallest ring in which "ready to write" and "ready to read" states
	// stay distinguishable, so the capacity floor is 2.
	size := 2
	for size < capacity {
		size <<= 1
	}
	q := &queue{mask: uint64(size - 1), buf: make([]slot, size)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

//sync4:zeroalloc
func (q *queue) Put(v int64) {
	spins := 0
	for !q.TryPut(v) {
		pause(&spins)
	}
}

//sync4:zeroalloc
func (q *queue) TryPut(v int64) bool {
	pos := q.enq.Load()
	for {
		s := &q.buf[pos&q.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case diff < 0:
			return false // full
		default:
			pos = q.enq.Load()
		}
	}
}

//sync4:zeroalloc
func (q *queue) TryGet() (int64, bool) {
	pos := q.deq.Load()
	for {
		s := &q.buf[pos&q.mask]
		seq := s.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := s.val
				s.seq.Store(pos + q.mask + 1)
				return v, true
			}
			pos = q.deq.Load()
		case diff < 0:
			return 0, false // empty
		default:
			pos = q.deq.Load()
		}
	}
}

//sync4:zeroalloc
func (q *queue) Len() int {
	n := int64(q.enq.Load()) - int64(q.deq.Load())
	if n < 0 {
		n = 0
	}
	if max := int64(q.mask + 1); n > max {
		n = max
	}
	return int(n)
}

// stack is a Treiber stack. Go's garbage collector rules out the ABA hazard:
// a node cannot be recycled while any thread still holds a pointer to it.
// Each node records its depth and is immutable once published, so Len reads
// the top node instead of a shared count. Progress: lock-free.
type stack struct {
	top atomic.Pointer[node]
}

type node struct {
	val   int64
	depth int
	next  *node
}

func (n *node) len() int {
	if n == nil {
		return 0
	}
	return n.depth
}

func (s *stack) Push(v int64) {
	n := &node{val: v}
	for {
		old := s.top.Load()
		n.next, n.depth = old, old.len()+1
		if s.top.CompareAndSwap(old, n) {
			return
		}
	}
}

//sync4:zeroalloc
func (s *stack) TryPop() (int64, bool) {
	for {
		old := s.top.Load()
		if old == nil {
			return 0, false
		}
		if s.top.CompareAndSwap(old, old.next) {
			return old.val, true
		}
	}
}

//sync4:zeroalloc
func (s *stack) Len() int { return s.top.Load().len() }

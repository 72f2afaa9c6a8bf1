package sync4

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Instrument wraps kit so that every synchronization operation increments
// the matching field in c. When withTime is true, blocking operations also
// accumulate their wall-clock duration; this adds two clock reads per
// blocking operation, so leave it off for pure event censuses on hot paths.
func Instrument(kit Kit, c *Counters, withTime bool) Kit {
	return &obsKit{base: kit, c: c, timed: withTime, suffix: "+instr"}
}

// Trace wraps kit so every synchronization operation is recorded as a typed
// event in r: which object, which operation, and the monotonic [start, end]
// of the call. Objects get stable ids at construction time (single-threaded
// setup, per Kit's contract); recording on the hot path is zero-allocation.
//
// A nil recorder returns kit unchanged: disabled tracing costs nothing, not
// even a wrapper indirection. Given a kit Instrument returned, Trace extends
// that wrapper instead of stacking a second one.
//
// The recorded census matches Instrument's exactly: RMW updates (Counter
// Add/Inc, Accumulator.Add, MinMax.Update) emit OpRMW, Put is recorded
// always and Try* only on success, and reads (Load, IsSet, Len) and failed
// polls — which would flood the buffers in spin loops — never. Lock releases
// are recorded but not counted, so census comparisons skip OpLockRelease.
func Trace(kit Kit, r *trace.Recorder) Kit {
	if r == nil {
		return kit
	}
	if k, ok := kit.(*obsKit); ok && k.r == nil {
		fused := *k
		fused.r, fused.suffix = r, k.suffix+"+trace"
		return &fused
	}
	return &obsKit{base: kit, c: new(Counters), r: r, suffix: "+trace"}
}

// obsKit is the one observing decorator behind Instrument and Trace: every
// operation is counted into c (private when Trace is used alone), blocking
// calls are timed when timed is set, and every counted operation and each
// lock release is recorded into r when it is non-nil.
type obsKit struct {
	base   Kit
	c      *Counters
	timed  bool
	r      *trace.Recorder
	suffix string
}

func (k *obsKit) Name() string { return k.base.Name() + k.suffix }

// observe gives a new object of family f its observation state and trace id.
func (k *obsKit) observe(f trace.Family) obs {
	o := obs{n: k.c, r: k.r, timed: k.timed}
	if k.r != nil {
		o.id = k.r.RegisterObject(f)
	}
	return o
}

func (k *obsKit) NewBarrier(n int) Barrier {
	k.c.BarriersCreated.Add(1)
	return &obsBarrier{b: k.base.NewBarrier(n), obs: k.observe(trace.FamilyBarrier)}
}

func (k *obsKit) NewLock() Locker {
	k.c.LocksCreated.Add(1)
	return &obsLock{l: k.base.NewLock(), obs: k.observe(trace.FamilyLock)}
}

func (k *obsKit) NewCounter() Counter {
	k.c.CountersCreated.Add(1)
	return &obsCounter{c: k.base.NewCounter(), obs: k.observe(trace.FamilyCounter)}
}

func (k *obsKit) NewAccumulator() Accumulator {
	k.c.AccumsCreated.Add(1)
	return &obsAccum{a: k.base.NewAccumulator(), obs: k.observe(trace.FamilyAccum)}
}

func (k *obsKit) NewMinMax() MinMax {
	k.c.MinMaxCreated.Add(1)
	return &obsMinMax{m: k.base.NewMinMax(), obs: k.observe(trace.FamilyMinMax)}
}

func (k *obsKit) NewFlag() Flag {
	k.c.FlagsCreated.Add(1)
	return &obsFlag{f: k.base.NewFlag(), obs: k.observe(trace.FamilyFlag)}
}

func (k *obsKit) NewQueue(capacity int) Queue {
	k.c.QueuesCreated.Add(1)
	return &obsQueue{q: k.base.NewQueue(capacity), obs: k.observe(trace.FamilyQueue)}
}

func (k *obsKit) NewStack() Stack {
	k.c.StacksCreated.Add(1)
	return &obsStack{s: k.base.NewStack(), obs: k.observe(trace.FamilyStack)}
}

// obs is the per-object half of the decorator, copied out of the kit and
// embedded first in each construct so that, with start and done inlined, the
// count-only path keeps as little live across the forwarded call as it can.
type obs struct {
	n     *Counters
	r     *trace.Recorder
	timed bool
	id    uint32
}

// start returns the clock reading a traced call or a timed blocking call
// needs, and 0 otherwise, so counting alone reads no clock.
func (o *obs) start(blocking bool) int64 {
	if o.r == nil && !(blocking && o.timed) {
		return 0
	}
	return o.now()
}

// done completes start: a timed blocking call adds its duration to *blocked
// (nil for non-blocking calls), and a traced call records op.
func (o *obs) done(op trace.Op, start int64, blocked *atomic.Int64) {
	if o.r == nil && !(blocked != nil && o.timed) {
		return
	}
	o.finish(op, start, blocked)
}

func (o *obs) finish(op trace.Op, start int64, blocked *atomic.Int64) {
	if blocked != nil && o.timed {
		blocked.Add(o.now() - start)
	}
	if o.r != nil {
		o.r.Record(op, o.id, start)
	}
}

// now reads the monotonic clock — the recorder's when tracing, so events
// and blocked time share one timebase.
func (o *obs) now() int64 {
	if o.r != nil {
		return o.r.Now()
	}
	return int64(time.Since(clockBase))
}

var clockBase = time.Now()

type obsBarrier struct {
	obs
	b Barrier
}

//sync4:zeroalloc
func (b *obsBarrier) Wait() {
	b.n.BarrierWaits.Add(1)
	start := b.start(true)
	b.b.Wait()
	b.done(trace.OpBarrierWait, start, &b.n.BarrierNanos)
}

type obsLock struct {
	obs
	l Locker
}

//sync4:zeroalloc
func (l *obsLock) Lock() {
	l.n.LockAcquires.Add(1)
	start := l.start(true)
	l.l.Lock()
	l.done(trace.OpLockAcquire, start, &l.n.LockNanos)
}

//sync4:zeroalloc
func (l *obsLock) Unlock() {
	start := l.start(false)
	l.l.Unlock()
	l.done(trace.OpLockRelease, start, nil)
}

type obsCounter struct {
	obs
	c Counter
}

//sync4:zeroalloc
func (c *obsCounter) Add(delta int64) int64 {
	c.n.CounterOps.Add(1)
	start := c.start(false)
	v := c.c.Add(delta)
	c.done(trace.OpRMW, start, nil)
	return v
}

//sync4:zeroalloc
func (c *obsCounter) Inc() int64 {
	c.n.CounterOps.Add(1)
	start := c.start(false)
	v := c.c.Inc()
	c.done(trace.OpRMW, start, nil)
	return v
}

//sync4:zeroalloc
func (c *obsCounter) Load() int64 { return c.c.Load() }

//sync4:zeroalloc
func (c *obsCounter) Store(v int64) { c.c.Store(v) }

type obsAccum struct {
	obs
	a Accumulator
}

//sync4:zeroalloc
func (a *obsAccum) Add(v float64) {
	a.n.AccumOps.Add(1)
	start := a.start(false)
	a.a.Add(v)
	a.done(trace.OpRMW, start, nil)
}

//sync4:zeroalloc
func (a *obsAccum) Load() float64 { return a.a.Load() }

//sync4:zeroalloc
func (a *obsAccum) Store(v float64) { a.a.Store(v) }

type obsMinMax struct {
	obs
	m MinMax
}

//sync4:zeroalloc
func (m *obsMinMax) Update(v float64) {
	m.n.MinMaxOps.Add(1)
	start := m.start(false)
	m.m.Update(v)
	m.done(trace.OpRMW, start, nil)
}

//sync4:zeroalloc
func (m *obsMinMax) Min() float64 { return m.m.Min() }

//sync4:zeroalloc
func (m *obsMinMax) Max() float64 { return m.m.Max() }
func (m *obsMinMax) Reset()       { m.m.Reset() }

type obsFlag struct {
	obs
	f Flag
}

//sync4:zeroalloc
func (f *obsFlag) Set() {
	f.n.FlagSets.Add(1)
	start := f.start(false)
	f.f.Set()
	f.done(trace.OpFlagSet, start, nil)
}

//sync4:zeroalloc
func (f *obsFlag) Wait() {
	f.n.FlagWaits.Add(1)
	start := f.start(true)
	f.f.Wait()
	f.done(trace.OpFlagWait, start, &f.n.FlagNanos)
}

//sync4:zeroalloc
func (f *obsFlag) IsSet() bool { return f.f.IsSet() }

type obsQueue struct {
	obs
	q Queue
}

//sync4:zeroalloc
func (q *obsQueue) Put(v int64) {
	q.n.QueuePuts.Add(1)
	start := q.start(false)
	q.q.Put(v)
	q.done(trace.OpQueuePut, start, nil)
}

//sync4:zeroalloc
func (q *obsQueue) TryPut(v int64) bool {
	start := q.start(false)
	ok := q.q.TryPut(v)
	if ok {
		q.n.QueuePuts.Add(1)
		q.done(trace.OpQueuePut, start, nil)
	}
	return ok
}

//sync4:zeroalloc
func (q *obsQueue) TryGet() (int64, bool) {
	start := q.start(false)
	v, ok := q.q.TryGet()
	if !ok {
		q.n.QueueGetFails.Add(1)
		return v, ok
	}
	q.n.QueueGets.Add(1)
	q.done(trace.OpQueueGet, start, nil)
	return v, ok
}

//sync4:zeroalloc
func (q *obsQueue) Len() int { return q.q.Len() }

type obsStack struct {
	obs
	s Stack
}

func (s *obsStack) Push(v int64) {
	s.n.StackPushes.Add(1)
	start := s.start(false)
	s.s.Push(v)
	s.done(trace.OpStackPush, start, nil)
}

//sync4:zeroalloc
func (s *obsStack) TryPop() (int64, bool) {
	start := s.start(false)
	v, ok := s.s.TryPop()
	if !ok {
		s.n.StackPopFails.Add(1)
		return v, ok
	}
	s.n.StackPops.Add(1)
	s.done(trace.OpStackPop, start, nil)
	return v, ok
}

//sync4:zeroalloc
func (s *obsStack) Len() int { return s.s.Len() }

package sync4

import (
	"fmt"

	"repro/internal/trace"
)

// Trace wraps kit so every synchronization operation is recorded as a typed
// event in r: which object, which operation, and the monotonic [start, end]
// of the call. Objects get stable ids at construction time (single-threaded
// setup, per Kit's contract); recording on the hot path is zero-allocation.
//
// A nil recorder returns kit unchanged — disabled tracing costs nothing,
// not even a wrapper indirection.
//
// The recorded census matches sync4.Instrument exactly: read-modify-write
// updates (Counter.Add/Inc, Accumulator.Add, MinMax.Update) emit OpRMW,
// queue puts are recorded unconditionally and Try* operations only on
// success, and pure reads (Load, IsSet, Len) plus failed polls are not
// recorded at all — the latter would flood the buffers during spin loops.
// Lock releases ARE recorded (Instrument has no release counter), so census
// comparisons skip OpLockRelease.
func Trace(kit Kit, r *trace.Recorder) Kit {
	if r == nil {
		return kit
	}
	return &tracedKit{base: kit, r: r}
}

// CheckTraceCensus compares a capture's per-operation event counts with an
// Instrument census of the same run and returns the first disagreement.
// Lock releases are traced but not censused, so they are not compared. A
// lossy capture legitimately undercounts and is never an error.
func CheckTraceCensus(c *trace.Capture, s Snapshot) error {
	if c.TotalDropped() > 0 {
		return nil
	}
	got := c.OpCounts()
	for _, p := range []struct {
		op     trace.Op
		census int64
	}{
		{trace.OpBarrierWait, s.BarrierWaits},
		{trace.OpLockAcquire, s.LockAcquires},
		{trace.OpRMW, s.RMWOps()},
		{trace.OpFlagSet, s.FlagSets},
		{trace.OpFlagWait, s.FlagWaits},
		{trace.OpQueuePut, s.QueuePuts},
		{trace.OpQueueGet, s.QueueGets},
		{trace.OpStackPush, s.StackPushes},
		{trace.OpStackPop, s.StackPops},
	} {
		if got[p.op] != p.census {
			return fmt.Errorf("%s: trace %d, census %d", p.op, got[p.op], p.census)
		}
	}
	return nil
}

type tracedKit struct {
	base Kit
	r    *trace.Recorder
}

func (k *tracedKit) Name() string { return k.base.Name() + "+trace" }

func (k *tracedKit) NewBarrier(n int) Barrier {
	return &tracedBarrier{b: k.base.NewBarrier(n), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyBarrier)}
}

func (k *tracedKit) NewLock() Locker {
	return &tracedLock{l: k.base.NewLock(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyLock)}
}

func (k *tracedKit) NewCounter() Counter {
	return &tracedCounter{c: k.base.NewCounter(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyCounter)}
}

func (k *tracedKit) NewAccumulator() Accumulator {
	return &tracedAccum{a: k.base.NewAccumulator(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyAccum)}
}

func (k *tracedKit) NewMinMax() MinMax {
	return &tracedMinMax{m: k.base.NewMinMax(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyMinMax)}
}

func (k *tracedKit) NewFlag() Flag {
	return &tracedFlag{f: k.base.NewFlag(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyFlag)}
}

func (k *tracedKit) NewQueue(capacity int) Queue {
	return &tracedQueue{q: k.base.NewQueue(capacity), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyQueue)}
}

func (k *tracedKit) NewStack() Stack {
	return &tracedStack{s: k.base.NewStack(), r: k.r,
		obj: k.r.RegisterObject(trace.FamilyStack)}
}

type tracedBarrier struct {
	b   Barrier
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (b *tracedBarrier) Wait() {
	start := b.r.Now()
	b.b.Wait()
	b.r.Record(trace.OpBarrierWait, b.obj, start)
}

type tracedLock struct {
	l   Locker
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (l *tracedLock) Lock() {
	start := l.r.Now()
	l.l.Lock()
	l.r.Record(trace.OpLockAcquire, l.obj, start)
}

//sync4:zeroalloc
func (l *tracedLock) Unlock() {
	start := l.r.Now()
	l.l.Unlock()
	l.r.Record(trace.OpLockRelease, l.obj, start)
}

type tracedCounter struct {
	c   Counter
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (c *tracedCounter) Add(delta int64) int64 {
	start := c.r.Now()
	v := c.c.Add(delta)
	c.r.Record(trace.OpRMW, c.obj, start)
	return v
}

//sync4:zeroalloc
func (c *tracedCounter) Inc() int64 {
	start := c.r.Now()
	v := c.c.Inc()
	c.r.Record(trace.OpRMW, c.obj, start)
	return v
}

//sync4:zeroalloc
func (c *tracedCounter) Load() int64 { return c.c.Load() }

//sync4:zeroalloc
func (c *tracedCounter) Store(v int64) { c.c.Store(v) }

type tracedAccum struct {
	a   Accumulator
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (a *tracedAccum) Add(v float64) {
	start := a.r.Now()
	a.a.Add(v)
	a.r.Record(trace.OpRMW, a.obj, start)
}

//sync4:zeroalloc
func (a *tracedAccum) Load() float64 { return a.a.Load() }

//sync4:zeroalloc
func (a *tracedAccum) Store(v float64) { a.a.Store(v) }

type tracedMinMax struct {
	m   MinMax
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (m *tracedMinMax) Update(v float64) {
	start := m.r.Now()
	m.m.Update(v)
	m.r.Record(trace.OpRMW, m.obj, start)
}

//sync4:zeroalloc
func (m *tracedMinMax) Min() float64 { return m.m.Min() }

//sync4:zeroalloc
func (m *tracedMinMax) Max() float64 { return m.m.Max() }
func (m *tracedMinMax) Reset()       { m.m.Reset() }

type tracedFlag struct {
	f   Flag
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (f *tracedFlag) Set() {
	start := f.r.Now()
	f.f.Set()
	f.r.Record(trace.OpFlagSet, f.obj, start)
}

//sync4:zeroalloc
func (f *tracedFlag) Wait() {
	start := f.r.Now()
	f.f.Wait()
	f.r.Record(trace.OpFlagWait, f.obj, start)
}

//sync4:zeroalloc
func (f *tracedFlag) IsSet() bool { return f.f.IsSet() }

type tracedQueue struct {
	q   Queue
	r   *trace.Recorder
	obj uint32
}

//sync4:zeroalloc
func (q *tracedQueue) Put(v int64) {
	start := q.r.Now()
	q.q.Put(v)
	q.r.Record(trace.OpQueuePut, q.obj, start)
}

//sync4:zeroalloc
func (q *tracedQueue) TryPut(v int64) bool {
	start := q.r.Now()
	ok := q.q.TryPut(v)
	if ok {
		q.r.Record(trace.OpQueuePut, q.obj, start)
	}
	return ok
}

//sync4:zeroalloc
func (q *tracedQueue) TryGet() (int64, bool) {
	start := q.r.Now()
	v, ok := q.q.TryGet()
	if ok {
		q.r.Record(trace.OpQueueGet, q.obj, start)
	}
	return v, ok
}

//sync4:zeroalloc
func (q *tracedQueue) Len() int { return q.q.Len() }

type tracedStack struct {
	s   Stack
	r   *trace.Recorder
	obj uint32
}

func (s *tracedStack) Push(v int64) {
	start := s.r.Now()
	s.s.Push(v)
	s.r.Record(trace.OpStackPush, s.obj, start)
}

//sync4:zeroalloc
func (s *tracedStack) TryPop() (int64, bool) {
	start := s.r.Now()
	v, ok := s.s.TryPop()
	if ok {
		s.r.Record(trace.OpStackPop, s.obj, start)
	}
	return v, ok
}

//sync4:zeroalloc
func (s *tracedStack) Len() int { return s.s.Len() }

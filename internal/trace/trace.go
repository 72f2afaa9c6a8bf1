// Package trace is the suite's synchronization event tracer: where
// sync4.Instrument keeps an aggregate census (how many barrier episodes,
// how much blocked time), this package records *when* each operation
// happened and *on which object* — the per-operation timeline that exposes
// contention pathologies a census averages away.
//
// The recorder is built for hot paths:
//
//   - Events land in fixed-capacity per-lane buffers preallocated at
//     construction; recording allocates zero bytes in steady state.
//   - A lane is an OS thread. The recording thread is identified with one
//     gettid call and a lock-free open-addressed table lookup; during
//     harness runs workers are pinned to OS threads (PinWorker), making
//     lanes correspond 1:1 to the workload's logical threads.
//   - Timestamps are monotonic nanosecond offsets from the recorder epoch,
//     the same clock the harness exposes as Result.Regions, so traces,
//     region brackets and runtime/metrics samples align.
//   - Memory is bounded: when a lane's buffer fills, further events are
//     dropped and counted, never silently lost and never reallocated.
//
// Captured traces export to Chrome trace-event JSON (chrome.go, loadable in
// Perfetto), aggregate into per-phase timelines and blocked-time histograms
// (timeline.go), and replay through internal/dessim (dessim.FromCapture).
package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Op enumerates the recorded synchronization operations.
type Op uint8

// Operations, one per sync4 construct interaction the tracer observes.
const (
	OpBarrierWait Op = iota
	OpLockAcquire
	OpLockRelease
	OpRMW
	OpFlagSet
	OpFlagWait
	OpQueuePut
	OpQueueGet
	OpStackPush
	OpStackPop
	// NumOps bounds the Op space for count arrays.
	NumOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpBarrierWait:
		return "barrier-wait"
	case OpLockAcquire:
		return "lock-acquire"
	case OpLockRelease:
		return "lock-release"
	case OpRMW:
		return "rmw"
	case OpFlagSet:
		return "flag-set"
	case OpFlagWait:
		return "flag-wait"
	case OpQueuePut:
		return "queue-put"
	case OpQueueGet:
		return "queue-get"
	case OpStackPush:
		return "stack-push"
	case OpStackPop:
		return "stack-pop"
	default:
		return "op-unknown"
	}
}

// Blocking reports whether the operation can block or spin waiting for
// other threads; these are the events whose durations feed the
// blocked-time histograms.
func (o Op) Blocking() bool {
	switch o {
	case OpBarrierWait, OpLockAcquire, OpFlagWait, OpQueuePut:
		return true
	}
	return false
}

// Family enumerates the sync4 construct families for object registration.
type Family uint8

// Construct families, mirroring the sync4.Kit factory methods.
const (
	FamilyBarrier Family = iota
	FamilyLock
	FamilyCounter
	FamilyAccum
	FamilyMinMax
	FamilyFlag
	FamilyQueue
	FamilyStack
	numFamilies
)

// String implements fmt.Stringer.
func (f Family) String() string {
	switch f {
	case FamilyBarrier:
		return "barrier"
	case FamilyLock:
		return "lock"
	case FamilyCounter:
		return "counter"
	case FamilyAccum:
		return "accum"
	case FamilyMinMax:
		return "minmax"
	case FamilyFlag:
		return "flag"
	case FamilyQueue:
		return "queue"
	case FamilyStack:
		return "stack"
	default:
		return "family-unknown"
	}
}

// Object describes one registered shared object: its construct family and
// its creation rank within that family. The object id an Event carries is
// the index into Capture.Objects, stable for the lifetime of the recorder.
type Object struct {
	Family Family
	Seq    int32 // 0-based creation order within the family
}

// Event is one recorded operation: [Start, End] are nanosecond offsets from
// the recorder epoch (monotonic clock), Obj the registered object id.
// Blocking operations span their full wait; the rest are near-instant.
type Event struct {
	Start int64
	End   int64
	Obj   uint32
	Op    Op
}

// Dur returns the event's duration in nanoseconds.
func (e Event) Dur() int64 { return e.End - e.Start }

// lane is one OS thread's fixed-capacity event buffer. The cursor is
// fetch-added so a migrating (unpinned) goroutine pair can never collide on
// a slot; slots beyond capacity are counted as drops.
type lane struct {
	cur      atomic.Int64
	dropped  atomic.Int64
	barriers atomic.Int64 // barrier episodes observed (watchdog heartbeat)
	//lint:ignore sync4vet-atomic-layout all four cursors are written only by the lane-owning thread; cross-thread reads (watchdog, snapshot) are rare polls, so intra-lane padding would buy nothing and triple the header
	lastOp atomic.Int32 // op+1 of the last observed event; 0 = none yet
	_      [76]byte     // pad the header to a 128-byte stride so adjacent lanes' hot cursors never share a line
	evs    []Event
}

// slot maps one OS thread id to its lane. lane semantics: 0 = unset (the
// claim is in progress), -1 = overflow (no lane left), otherwise laneIdx+1.
type slot struct {
	key atomic.Int64
	//lint:ignore sync4vet-atomic-layout key is CAS'd once per thread at claim time and then only loaded; steady-state traffic is read-shared, and padding the table would multiply its footprint 8x
	lane atomic.Int32
}

// Recorder records synchronization events into per-OS-thread lanes.
// Recording methods are safe for concurrent use; Reset, Recycle and Snapshot
// require quiescence (no concurrent recording), which the harness guarantees
// by calling them between repetitions.
type Recorder struct {
	epochNanos atomic.Int64 // monotonic offset of the current epoch, see Reset
	epoch      time.Time
	base       time.Time // clock origin; epoch = base + epochNanos
	capacity   int
	lanes      []lane
	nextLane   atomic.Int32
	slots      []slot
	mask       uint64
	noLane     atomic.Int64

	mu      sync.Mutex
	objects []Object
	famSeq  [numFamilies]int32
}

// NewRecorder returns a recorder with maxLanes per-thread buffers of
// `capacity` events each. Memory is allocated up front
// (maxLanes * capacity * 24 bytes) and never grows. maxLanes and capacity
// are clamped to at least 1; maxLanes to at most 1024.
func NewRecorder(maxLanes, capacity int) *Recorder {
	if maxLanes < 1 {
		maxLanes = 1
	}
	if maxLanes > 1024 {
		maxLanes = 1024
	}
	if capacity < 1 {
		capacity = 1
	}
	tab := 64
	for tab < 8*maxLanes {
		tab <<= 1
	}
	r := &Recorder{
		base:     time.Now(),
		capacity: capacity,
		lanes:    make([]lane, maxLanes),
		slots:    make([]slot, tab),
		mask:     uint64(tab - 1),
	}
	r.epoch = r.base
	for i := range r.lanes {
		r.lanes[i].evs = make([]Event, capacity)
	}
	return r
}

// MaxLanes returns the number of per-thread buffers the recorder was built
// with.
func (r *Recorder) MaxLanes() int { return len(r.lanes) }

// Epoch returns the time origin of event offsets: Epoch().Add(ev.Start)
// is the event's wall-clock start.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Now returns the current monotonic offset from the epoch in nanoseconds.
//
//sync4:zeroalloc
func (r *Recorder) Now() int64 {
	return time.Since(r.base).Nanoseconds() - r.epochNanos.Load()
}

// RegisterObject assigns a stable id to a new shared object of the given
// family. It is called by construct factories (single-threaded setup, per
// sync4.Kit's contract), not on hot paths, and is the only recording-side
// path that allocates.
func (r *Recorder) RegisterObject(f Family) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f >= numFamilies {
		f = numFamilies - 1
	}
	id := uint32(len(r.objects))
	r.objects = append(r.objects, Object{Family: f, Seq: r.famSeq[f]})
	r.famSeq[f]++
	return id
}

// Record appends one event for the calling OS thread: op on object obj,
// spanning [start, now]. start comes from an earlier Now() call. Zero
// allocation; when the lane is full or no lane is left the event is
// dropped and counted.
//
//sync4:zeroalloc
func (r *Recorder) Record(op Op, obj uint32, start int64) {
	end := r.Now()
	l := r.lane()
	if l == nil {
		r.noLane.Add(1)
		return
	}
	// Progress probes first, so even dropped events count as observed
	// progress for the watchdog.
	l.lastOp.Store(int32(op) + 1)
	if op == OpBarrierWait {
		l.barriers.Add(1)
	}
	idx := l.cur.Add(1) - 1
	if idx >= int64(r.capacity) {
		l.dropped.Add(1)
		return
	}
	l.evs[idx] = Event{Start: start, End: end, Obj: obj, Op: op}
}

// Progress returns a monotonic count of events observed since the last
// Reset, including dropped ones. Unlike Snapshot it is safe to call while
// recording is in flight — it reads only atomic counters — which makes it
// the harness watchdog's heartbeat: a stalled workload stops advancing it.
func (r *Recorder) Progress() int64 {
	n := r.noLane.Load()
	for i := range r.lanes {
		n += r.lanes[i].cur.Load()
	}
	return n
}

// LaneState is an atomic-counter summary of one lane, readable while
// recording is in flight (no event payloads). It is what the watchdog's
// stall diagnosis reports per worker: how far it got (Ops, Barriers) and
// what it was last seen doing (LastOp).
type LaneState struct {
	// Ops counts events observed on the lane, including dropped ones.
	Ops int64
	// Dropped counts events lost because the lane buffer was full.
	Dropped int64
	// Barriers counts barrier episodes completed — the lane's last
	// barrier phase.
	Barriers int64
	// LastOp is the most recent operation observed, valid when HasLast.
	LastOp  Op
	HasLast bool
}

// LaneStates summarizes every claimed lane from atomic counters only.
// Safe to call concurrently with recording; the per-lane values are each
// individually consistent, not a cross-lane snapshot.
func (r *Recorder) LaneStates() []LaneState {
	claimed := int(r.nextLane.Load())
	if claimed > len(r.lanes) {
		claimed = len(r.lanes)
	}
	states := make([]LaneState, claimed)
	for i := 0; i < claimed; i++ {
		l := &r.lanes[i]
		s := LaneState{
			Ops:      l.cur.Load(),
			Dropped:  l.dropped.Load(),
			Barriers: l.barriers.Load(),
		}
		if op := l.lastOp.Load(); op > 0 {
			s.LastOp, s.HasLast = Op(op-1), true
		}
		states[i] = s
	}
	return states
}

// lane returns the calling OS thread's lane, claiming one on first use, or
// nil when the lane supply or the thread table is exhausted.
//
//sync4:zeroalloc
func (r *Recorder) lane() *lane {
	key := int64(ostid())
	h := (uint64(key) * 0x9E3779B97F4A7C15) >> 32 & r.mask
	for probes := 0; probes <= int(r.mask); probes++ {
		s := &r.slots[h]
		k := s.key.Load()
		if k == key {
			for {
				li := s.lane.Load()
				switch {
				case li > 0:
					return &r.lanes[li-1]
				case li < 0:
					return nil
				}
				// A goroutine that claimed this slot was preempted
				// between publishing the key and the lane; it can only
				// finish if we yield (GOMAXPROCS may be 1).
				runtime.Gosched()
			}
		}
		if k == 0 && s.key.CompareAndSwap(0, key) {
			li := r.nextLane.Add(1)
			if int(li) > len(r.lanes) {
				s.lane.Store(-1)
				return nil
			}
			s.lane.Store(li)
			return &r.lanes[li-1]
		}
		h = (h + 1) & r.mask
	}
	return nil
}

// Reset clears all recorded events and drop counts and re-arms the epoch at
// the current instant, so the next capture's offsets start near zero. The
// object registry and the thread table survive: object ids stay stable and
// pinned threads keep their lanes. Callers must ensure no recording is in
// flight (the harness resets between repetitions).
func (r *Recorder) Reset() {
	for i := range r.lanes {
		r.lanes[i].cur.Store(0)
		r.lanes[i].dropped.Store(0)
		r.lanes[i].barriers.Store(0)
		r.lanes[i].lastOp.Store(0)
	}
	r.noLane.Store(0)
	now := time.Since(r.base).Nanoseconds()
	r.epochNanos.Store(now)
	r.epoch = r.base.Add(time.Duration(now))
}

// Recycle restores the just-constructed state so the recorder can serve an
// unrelated run: Reset, plus everything Reset deliberately keeps — the
// thread table and lane claims (the next run's workers are other OS threads;
// kept, the table fills and their events are lost to NoLane) and the object
// registry (ids restart at 0). The event buffers are reused as they are:
// nothing reads past a lane's cursor. Like Reset it requires quiescence, and
// every goroutine that ever recorded here must have been joined — a recorder
// some abandoned worker may still write to must be dropped, not recycled.
func (r *Recorder) Recycle() {
	r.Reset()
	for i := range r.slots {
		r.slots[i].key.Store(0)
		r.slots[i].lane.Store(0)
	}
	r.nextLane.Store(0)
	r.mu.Lock()
	r.objects = r.objects[:0]
	r.famSeq = [numFamilies]int32{}
	r.mu.Unlock()
}

// Capture is a quiescent copy of a recorder's state, the unit the
// exporters and the dessim converter consume.
type Capture struct {
	// Epoch is the wall+monotonic origin of all event offsets.
	Epoch time.Time
	// Capacity is the per-lane event capacity the recorder ran with.
	Capacity int
	// Lanes holds each claimed lane's events in record order (which is
	// start-time order for any pinned thread). Lanes with no events are
	// included so lane indices stay aligned with drop accounting.
	Lanes [][]Event
	// Dropped counts events lost per lane because its buffer was full.
	Dropped []int64
	// NoLane counts events lost because every lane was already claimed.
	NoLane int64
	// Objects is the registry: ev.Obj indexes this slice.
	Objects []Object
}

// Snapshot copies the recorder's current contents. It requires quiescence:
// all recording goroutines must have been joined (the harness snapshots
// after Parallel returns).
func (r *Recorder) Snapshot() *Capture {
	r.mu.Lock()
	objects := make([]Object, len(r.objects))
	copy(objects, r.objects)
	r.mu.Unlock()

	claimed := int(r.nextLane.Load())
	if claimed > len(r.lanes) {
		claimed = len(r.lanes)
	}
	c := &Capture{
		Epoch:    r.epoch,
		Capacity: r.capacity,
		Lanes:    make([][]Event, claimed),
		Dropped:  make([]int64, claimed),
		NoLane:   r.noLane.Load(),
		Objects:  objects,
	}
	for i := 0; i < claimed; i++ {
		l := &r.lanes[i]
		n := l.cur.Load()
		if n > int64(r.capacity) {
			n = int64(r.capacity)
		}
		evs := make([]Event, n)
		copy(evs, l.evs[:n])
		c.Lanes[i] = evs
		c.Dropped[i] = l.dropped.Load()
	}
	return c
}

// Events returns the total number of captured events.
func (c *Capture) Events() int {
	var n int
	for _, lane := range c.Lanes {
		n += len(lane)
	}
	return n
}

// TotalDropped returns the total number of lost events, including those
// that found no lane.
func (c *Capture) TotalDropped() int64 {
	n := c.NoLane
	for _, d := range c.Dropped {
		n += d
	}
	return n
}

// OpCounts tallies captured events per operation — the trace-side census
// that must agree with sync4.Instrument for the same run.
func (c *Capture) OpCounts() [NumOps]int64 {
	var counts [NumOps]int64
	for _, lane := range c.Lanes {
		for _, ev := range lane {
			counts[ev.Op]++
		}
	}
	return counts
}

// PinWorker is the core.SetWorkerHook hook armed during traced runs: it
// pins the worker goroutine to its OS thread so the thread runs that worker
// exclusively and the recorder's lanes map 1:1 onto logical threads. The
// returned cleanup releases the pin.
func PinWorker(tid int) func() {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}

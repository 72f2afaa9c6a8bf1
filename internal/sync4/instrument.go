package sync4

import (
	"fmt"
	"sync/atomic"

	"repro/internal/trace"
)

// Counters aggregates synchronization events observed by an instrumented
// kit. All fields are updated atomically and may be read concurrently. The
// *Nanos fields record wall time spent inside potentially-blocking calls
// (lock acquisition, barrier waits, flag waits); they are only populated
// when the instrumented kit was created with timing enabled.
type Counters struct {
	LockAcquires  atomic.Int64
	BarrierWaits  atomic.Int64
	CounterOps    atomic.Int64
	AccumOps      atomic.Int64
	MinMaxOps     atomic.Int64
	FlagSets      atomic.Int64
	FlagWaits     atomic.Int64
	QueuePuts     atomic.Int64
	QueueGets     atomic.Int64
	QueueGetFails atomic.Int64
	StackPushes   atomic.Int64
	StackPops     atomic.Int64
	StackPopFails atomic.Int64

	LockNanos    atomic.Int64
	BarrierNanos atomic.Int64
	FlagNanos    atomic.Int64

	// Construction counts: how many objects of each family the workload
	// allocated. They tell a replay model how spread the traffic is
	// (e.g. one global ray counter versus thousands of per-molecule
	// accumulators).
	LocksCreated    atomic.Int64
	BarriersCreated atomic.Int64
	CountersCreated atomic.Int64
	AccumsCreated   atomic.Int64
	MinMaxCreated   atomic.Int64
	FlagsCreated    atomic.Int64
	QueuesCreated   atomic.Int64
	StacksCreated   atomic.Int64
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.LockAcquires.Store(0)
	c.BarrierWaits.Store(0)
	c.CounterOps.Store(0)
	c.AccumOps.Store(0)
	c.MinMaxOps.Store(0)
	c.FlagSets.Store(0)
	c.FlagWaits.Store(0)
	c.QueuePuts.Store(0)
	c.QueueGets.Store(0)
	c.QueueGetFails.Store(0)
	c.StackPushes.Store(0)
	c.StackPops.Store(0)
	c.StackPopFails.Store(0)
	c.LockNanos.Store(0)
	c.BarrierNanos.Store(0)
	c.FlagNanos.Store(0)
	// Construction counts are deliberately not reset: objects are built
	// once during Prepare and live across measured repetitions.
}

// Snapshot is a plain-value copy of Counters, convenient for reports.
type Snapshot struct {
	LockAcquires  int64
	BarrierWaits  int64
	CounterOps    int64
	AccumOps      int64
	MinMaxOps     int64
	FlagSets      int64
	FlagWaits     int64
	QueuePuts     int64
	QueueGets     int64
	QueueGetFails int64
	StackPushes   int64
	StackPops     int64
	StackPopFails int64

	LockNanos    int64
	BarrierNanos int64
	FlagNanos    int64

	LocksCreated    int64
	BarriersCreated int64
	CountersCreated int64
	AccumsCreated   int64
	MinMaxCreated   int64
	FlagsCreated    int64
	QueuesCreated   int64
	StacksCreated   int64
}

// Snapshot returns a point-in-time copy of the counters.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		LockAcquires:  c.LockAcquires.Load(),
		BarrierWaits:  c.BarrierWaits.Load(),
		CounterOps:    c.CounterOps.Load(),
		AccumOps:      c.AccumOps.Load(),
		MinMaxOps:     c.MinMaxOps.Load(),
		FlagSets:      c.FlagSets.Load(),
		FlagWaits:     c.FlagWaits.Load(),
		QueuePuts:     c.QueuePuts.Load(),
		QueueGets:     c.QueueGets.Load(),
		QueueGetFails: c.QueueGetFails.Load(),
		StackPushes:   c.StackPushes.Load(),
		StackPops:     c.StackPops.Load(),
		StackPopFails: c.StackPopFails.Load(),
		LockNanos:     c.LockNanos.Load(),
		BarrierNanos:  c.BarrierNanos.Load(),
		FlagNanos:     c.FlagNanos.Load(),

		LocksCreated:    c.LocksCreated.Load(),
		BarriersCreated: c.BarriersCreated.Load(),
		CountersCreated: c.CountersCreated.Load(),
		AccumsCreated:   c.AccumsCreated.Load(),
		MinMaxCreated:   c.MinMaxCreated.Load(),
		FlagsCreated:    c.FlagsCreated.Load(),
		QueuesCreated:   c.QueuesCreated.Load(),
		StacksCreated:   c.StacksCreated.Load(),
	}
}

// RMWCells returns how many distinct read-modify-write objects (counters,
// accumulators, min/max trackers, queues, stacks) the workload built: the
// span its RMW traffic is spread over.
func (s Snapshot) RMWCells() int64 {
	return s.CountersCreated + s.AccumsCreated + s.MinMaxCreated + s.QueuesCreated + s.StacksCreated
}

// RMWOps returns the total number of read-modify-write style operations
// (counter, accumulator and min/max updates): the events that become atomic
// instructions in Splash-4 and lock-protected sections in Splash-3.
func (s Snapshot) RMWOps() int64 { return s.CounterOps + s.AccumOps + s.MinMaxOps }

// BlockedNanos returns the total time spent inside blocking synchronization
// calls (locks, barriers, flag waits).
func (s Snapshot) BlockedNanos() int64 { return s.LockNanos + s.BarrierNanos + s.FlagNanos }

// Total returns the census-wide count of synchronization operations:
// everything the workload did through the kit, excluding construction and
// failed polls. It matches the event count of a lossless trace capture of
// the same run minus lock releases, which are traced but not censused.
func (s Snapshot) Total() int64 {
	return s.LockAcquires + s.BarrierWaits + s.RMWOps() + s.FlagSets + s.FlagWaits +
		s.QueuePuts + s.QueueGets + s.StackPushes + s.StackPops
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

// Package dessim is this reproduction's machine model: the stand-in for the
// paper's gem5-20 simulations (DESIGN.md, substitution S6). A
// cycle-accurate CPU simulator is out of scope; instead, dessim replays
// per-thread synchronization event traces against a modeled Machine and
// computes the actual critical path: lock and RMW serialization on shared
// objects, cache-line handoff between cores, barrier rendezvous, and the
// serialized wakeup chains of sleeping (condvar) barriers versus the
// broadcast release of spinning (atomic) barriers.
//
// Traces come from three sources: a real run's census (FromSnapshot), a
// captured event trace (FromCapture), or the canonical shapes and
// hand-built event lists the tests use. The Machine constants are loosely
// shaped after the paper's two machines, not calibrated: the model keeps
// the classic-vs-lockfree ordering and its growth with threads, not
// absolute times.
package dessim

import (
	"fmt"
	"time"
)

// Kind enumerates trace event types.
type Kind int

// Event kinds.
const (
	// Compute advances the thread's clock by Dur without touching
	// shared state.
	Compute Kind = iota
	// Barrier is a rendezvous on barrier object Obj: the thread blocks
	// until every participant of Obj arrives.
	Barrier
	// Lock is one acquire+release of lock object Obj.
	Lock
	// RMW is one read-modify-write (counter, accumulator, min/max,
	// queue or stack slot) on shared cell Obj.
	RMW
	// FlagSet publishes flag object Obj.
	FlagSet
	// FlagWait blocks until flag object Obj was published.
	FlagWait
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Barrier:
		return "barrier"
	case Lock:
		return "lock"
	case RMW:
		return "rmw"
	case FlagSet:
		return "flag-set"
	case FlagWait:
		return "flag-wait"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one step of a thread's trace.
type Event struct {
	Kind Kind
	// Obj identifies the shared object (barrier, lock, cell or flag id);
	// object id spaces are per Kind. Unused for Compute.
	Obj int
	// Dur is the compute duration; used only by Compute events.
	Dur time.Duration
}

// Trace holds one event sequence per thread.
type Trace [][]Event

// Result is the simulation outcome.
type Result struct {
	// Makespan is the modeled wall time: the maximum thread clock.
	Makespan time.Duration
	// PerThread holds each thread's final clock.
	PerThread []time.Duration
	// SyncTime is the total time threads spent in synchronization
	// (everything except Compute events), summed over threads.
	SyncTime time.Duration
	// ComputeTime is the total Compute duration summed over threads.
	ComputeTime time.Duration
}

// Simulate replays tr on machine m with the named kit's construct costs
// ("classic" selects the lock-based costs, anything else the atomic ones).
// It returns an error if barrier or flag usage deadlocks (mismatched
// participation).
func Simulate(tr Trace, m Machine, kitName string) (Result, error) {
	s := &sim{
		m:        m,
		classic:  kitName == "classic",
		tr:       tr,
		idx:      make([]int, len(tr)),
		clock:    make([]float64, len(tr)), // cycles
		lockFree: map[int]objState{},
		cellFree: map[int]objState{},
		flags:    map[int]flagState{},
		barriers: map[int]*barrierState{},
	}
	s.findBarrierParticipants()

	var computeCycles, totalCycles float64
	for {
		progress := false
		blocked := 0
		for t := range tr {
			ran, done := s.runThread(t)
			if ran {
				progress = true
			}
			if !done {
				blocked++
			}
		}
		if blocked == 0 {
			break
		}
		if !progress {
			return Result{}, fmt.Errorf("dessim: deadlock with %d threads blocked (mismatched barrier or flag usage)", blocked)
		}
	}

	res := Result{PerThread: make([]time.Duration, len(tr))}
	var maxClock float64
	for t, c := range s.clock {
		res.PerThread[t] = s.cyclesToTime(c)
		if c > maxClock {
			maxClock = c
		}
		totalCycles += c
	}
	for _, evs := range tr {
		for _, ev := range evs {
			if ev.Kind == Compute {
				computeCycles += float64(ev.Dur.Nanoseconds()) * s.m.ClockGHz
			}
		}
	}
	res.Makespan = s.cyclesToTime(maxClock)
	res.ComputeTime = s.cyclesToTime(computeCycles)
	res.SyncTime = s.cyclesToTime(totalCycles - computeCycles)
	if res.SyncTime < 0 {
		res.SyncTime = 0
	}
	return res, nil
}

// objState tracks when a shared object's cache line becomes available and
// which thread used it last.
type objState struct {
	freeAt float64
	owner  int
}

type flagState struct {
	set   bool
	setAt float64
}

type barrierState struct {
	participants int
	arrived      []arrival
}

type arrival struct {
	thread int
	at     float64
}

type sim struct {
	m        Machine
	classic  bool
	tr       Trace
	idx      []int
	clock    []float64
	lockFree map[int]objState
	cellFree map[int]objState
	flags    map[int]flagState
	barriers map[int]*barrierState
}

func (s *sim) cyclesToTime(c float64) time.Duration {
	return time.Duration(c / s.m.ClockGHz)
}

// findBarrierParticipants counts, per barrier object, how many threads use
// it; every episode requires all of them.
func (s *sim) findBarrierParticipants() {
	for _, evs := range s.tr {
		seen := map[int]bool{}
		for _, ev := range evs {
			if ev.Kind == Barrier && !seen[ev.Obj] {
				seen[ev.Obj] = true
				b := s.barriers[ev.Obj]
				if b == nil {
					b = &barrierState{}
					s.barriers[ev.Obj] = b
				}
				b.participants++
			}
		}
	}
}

// runThread advances thread t until it blocks or finishes. It reports
// whether any event was consumed and whether the trace is exhausted.
func (s *sim) runThread(t int) (ran, done bool) {
	for s.idx[t] < len(s.tr[t]) {
		ev := s.tr[t][s.idx[t]]
		switch ev.Kind {
		case Compute:
			s.clock[t] += float64(ev.Dur.Nanoseconds()) * s.m.ClockGHz
		case Lock:
			s.access(t, s.lockFree, ev.Obj, s.lockCost())
		case RMW:
			s.access(t, s.cellFree, ev.Obj, s.rmwCost())
		case FlagSet:
			cost := s.m.AtomicRMW
			if s.classic {
				cost = s.m.LockUncontended
			}
			s.clock[t] += cost
			f := s.flags[ev.Obj]
			if !f.set || s.clock[t] < f.setAt {
				s.flags[ev.Obj] = flagState{set: true, setAt: s.clock[t]}
			}
		case FlagWait:
			f := s.flags[ev.Obj]
			if !f.set {
				return ran, false // block until some thread sets it
			}
			wake := s.m.SpinCheck + s.m.CoherenceMiss
			if s.classic {
				wake = s.m.CondvarWakeup
			}
			if f.setAt > s.clock[t] {
				s.clock[t] = f.setAt
			}
			s.clock[t] += wake
		case Barrier:
			if !s.barrierArrive(t, ev.Obj) {
				return ran, false
			}
		}
		s.idx[t]++
		ran = true
	}
	return ran, true
}

// lockCost returns the base cost of one uncontended lock acquire+release.
func (s *sim) lockCost() float64 {
	if s.classic {
		return s.m.LockUncontended
	}
	return s.m.AtomicRMW
}

// rmwCost returns the base cost of one shared-cell update.
func (s *sim) rmwCost() float64 {
	if s.classic {
		return s.m.LockUncontended
	}
	return s.m.AtomicRMW
}

// access serializes thread t on shared object obj: it waits for the line,
// pays a transfer penalty when the previous user was another thread, and
// occupies the object for the operation's duration.
func (s *sim) access(t int, table map[int]objState, obj int, base float64) {
	st, seen := table[obj]
	start := s.clock[t]
	if start < st.freeAt {
		start = st.freeAt
	}
	cost := base
	if seen && st.owner != t {
		if s.classic {
			cost += s.m.LockHandoff
		} else {
			cost += s.m.CASRetry + s.m.CoherenceMiss
		}
	}
	s.clock[t] = start + cost
	table[obj] = objState{freeAt: s.clock[t], owner: t}
}

// barrierArrive registers thread t at barrier obj. When the last
// participant arrives the episode resolves: every waiter resumes at the
// release time, plus — for the classic condvar barrier — its position in
// the serialized wakeup chain.
func (s *sim) barrierArrive(t int, obj int) bool {
	b := s.barriers[obj]
	for _, a := range b.arrived {
		if a.thread == t {
			return false // already waiting for this episode
		}
	}
	b.arrived = append(b.arrived, arrival{thread: t, at: s.clock[t]})
	if len(b.arrived) < b.participants {
		return false
	}

	// Episode resolves now.
	var release float64
	for _, a := range b.arrived {
		if a.at > release {
			release = a.at
		}
	}
	if s.classic {
		release += s.m.BarrierMutexBase + s.m.LockUncontended
		// The broadcast's kernel queue walk is serial (a fraction of a
		// wakeup per sleeper), but the woken threads resume on their
		// own cores in parallel, each paying one full wakeup latency.
		// The last arrival (who triggers the broadcast) continues
		// immediately.
		chain := 0
		for _, a := range b.arrived {
			s.clock[a.thread] = release
			if a.thread != t {
				chain++
				s.clock[a.thread] += s.m.CondvarWakeup +
					float64(chain)*s.m.CondvarWakeup/10
			}
		}
	} else {
		release += s.m.BarrierAtomic + s.m.AtomicRMW
		// Spinners observe the phase flip after one line transfer,
		// all in parallel.
		for _, a := range b.arrived {
			s.clock[a.thread] = release
			if a.thread != t {
				s.clock[a.thread] += s.m.SpinCheck + s.m.CoherenceMiss
			}
		}
	}

	// Consume the barrier event of every other waiter (their next event
	// is this barrier; it has now happened).
	for _, a := range b.arrived {
		if a.thread != t {
			s.idx[a.thread]++
		}
	}
	b.arrived = b.arrived[:0]
	return true
}

package splash4

import (
	"time"

	"repro/internal/dessim"
	"repro/internal/sync4"
)

// The machine model, the stand-in for the paper's gem5 simulations: replay
// a run's synchronization census on a modeled machine, capturing
// serialization and critical path. See internal/dessim.

// Machine parameterizes a modeled machine's per-construct costs.
type Machine = dessim.Machine

// IceLakeLike returns a machine model loosely shaped after the simulated
// Intel Ice Lake server used in the paper.
func IceLakeLike() Machine { return dessim.IceLakeLike() }

// EpycLike returns a machine model loosely shaped after the AMD EPYC 7002
// (Rome) machine used in the paper.
func EpycLike() Machine { return dessim.EpycLike() }

// SimEvent is one step of a simulated thread's trace.
type SimEvent = dessim.Event

// SimTrace holds one event sequence per simulated thread.
type SimTrace = dessim.Trace

// SimResult is a simulation outcome (makespan, per-thread clocks,
// sync/compute split).
type SimResult = dessim.Result

// Simulated event kinds.
const (
	SimCompute  = dessim.Compute
	SimBarrier  = dessim.Barrier
	SimLock     = dessim.Lock
	SimRMW      = dessim.RMW
	SimFlagSet  = dessim.FlagSet
	SimFlagWait = dessim.FlagWait
)

// Simulate replays tr on machine m with the named kit's construct costs.
func Simulate(tr SimTrace, m Machine, kitName string) (SimResult, error) {
	return dessim.Simulate(tr, m, kitName)
}

// TraceFromSnapshot synthesizes per-thread traces matching a measured
// synchronization census: same barrier episodes, lock and RMW counts per
// thread, the given aggregate compute time spread across phases, and RMW
// traffic spread over hotCells distinct objects (use the census's
// RMWCells() when it was collected with Instrument).
func TraceFromSnapshot(s sync4.Snapshot, threads int, compute time.Duration, hotCells int) SimTrace {
	return dessim.FromSnapshot(s, threads, compute, hotCells)
}

// TraceFromCapture converts a captured event trace (Options.Trace) into a
// simulator trace: gaps between events become compute, barrier waits become
// simulator barriers, lock acquisitions carry their measured hold time.
// Unlike TraceFromSnapshot it preserves the run's real event ordering.
// Captures that dropped events are rejected.
func TraceFromCapture(c *TraceCapture) (SimTrace, error) {
	return dessim.FromCapture(c)
}

// Package waternsq implements the WATER-NSQUARED application: molecular
// dynamics with an O(n^2) all-pairs force computation, velocity-Verlet
// integration, and the suite's signature synchronization pattern — every
// step each thread folds its privately accumulated force contributions into
// shared per-molecule force cells. Splash-3 guards each cell with a
// per-molecule lock; Splash-4 replaces the lock/update/unlock with an atomic
// CAS accumulation. Here the cells are sync4.Accumulator values, so the same
// code runs both ways. The step loop, the merge, Run and Verify are package
// mdcommon's, shared with package waterspatial; this package is the
// all-pairs force phase.
//
// Fidelity note (see DESIGN.md): molecules are single Lennard-Jones sites in
// reduced units rather than three-site rigid water with a predictor-
// corrector; the pair interaction, the per-molecule merge, the global
// potential/kinetic energy reductions and the barrier schedule are the
// original's. Energy and momentum conservation make the physics verifiable.
//
// Scale mapping (molecules/steps): test 64/3, small 216/3, default 512/3
// (512 molecules is the Splash default input), large 1000/5.
package waternsq

import (
	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/workloads/mdcommon"
)

// Benchmark is the WATER-NSQUARED descriptor.
type Benchmark struct{}

// New returns the WATER-NSQUARED benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "water-nsquared" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "O(n^2) molecular dynamics with per-molecule force merges (app)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return mdcommon.Prepare(cfg, "waternsq", 1000, allPairs)
}

// allPairs is the all-pairs force phase. Rows are taken cyclically because
// a row's inner loop shrinks with i.
func allPairs(s *mdcommon.System, _ sync4.Kit) mdcommon.ForcePhase {
	return func(tid int, priv []float64) float64 {
		x, n, threads := s.X, s.N, s.Threads
		box, rc, vShift := s.Box, s.Rc, s.VShift
		var pe float64
		for i := tid; i < n; i += threads {
			pe += mdcommon.RowForces(x, priv, i, n, box, rc, vShift)
		}
		return pe
	}
}

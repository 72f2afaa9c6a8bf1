// Package ocean implements the OCEAN application: a parallel multigrid
// solve of the elliptic equation at the core of the original eddy-current
// simulation, in the "non-contiguous partitions" layout — every grid level
// lives in one global allocation and threads own interleaved row blocks of
// it. The solve — V-cycles, Run, Verify — is package mgcommon's, shared
// with package oceancont, so the layout is the only difference.
//
// Fidelity note (see DESIGN.md): the original couples several physical
// quantities over many timesteps; the dominant computation and the
// synchronization signature are the ones reproduced here — V-cycle
// multigrid with red-black Gauss-Seidel smoothing, where every half-sweep,
// restriction and prolongation on every level is a barrier episode and each
// cycle ends in a global residual reduction (lock-protected double in
// Splash-3, CAS accumulation in Splash-4) all threads read to decide
// convergence together. OCEAN is the most barrier-dense application in the
// suite.
//
// The Poisson problem uses a manufactured solution (u = sin(pi x) sin(pi y))
// so the result can be verified against both the discrete residual and the
// analytic field.
//
// Scale mapping (interior grid): test 63^2, small 127^2, default 255^2 (the
// Splash default input is 258^2 including the boundary ring), large 511^2.
// Interiors are 2^k - 1 so every coarse point coincides with an
// even-indexed fine point.
package ocean

import (
	"repro/internal/core"
	"repro/internal/workloads/mgcommon"
)

// Benchmark is the OCEAN descriptor.
type Benchmark struct{}

// New returns the OCEAN benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "ocean" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "multigrid elliptic solver, global-array layout (app)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return mgcommon.Prepare(cfg, "ocean", global)
}

// global is the non-contiguous partitions layout: one flat allocation per
// level, sliced into rows; thread ownership interleaves within it.
func global(_, n int) [][]float64 {
	width := n + 2
	backing := make([]float64, width*width)
	rows := make([][]float64, width)
	for r := range rows {
		rows[r], backing = backing[:width:width], backing[width:]
	}
	return rows
}

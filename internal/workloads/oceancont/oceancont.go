// Package oceancont implements the Ocean-Contiguous variant: the same
// multigrid solve as package ocean, but with the original suite's
// "contiguous partitions" layout — on every grid level, each thread's band
// of rows lives in its own contiguous allocation, so a worker smooths
// memory it owns and only touches neighbors' storage at band edges. The
// suite ships both layouts because the locality difference is one of the
// things it characterizes. The solve — V-cycles, Run, Verify — is package
// mgcommon's, so the layout is the only difference.
//
// Synchronization is identical to package ocean: barrier-separated
// red-black half-sweeps, restrictions and prolongations on every level,
// plus a per-cycle global residual reduction.
//
// Scale mapping (interior grid): test 63^2, small 127^2, default 255^2,
// large 511^2 (2^k - 1 interiors; see package ocean).
package oceancont

import (
	"repro/internal/core"
	"repro/internal/workloads/mgcommon"
)

// Benchmark is the Ocean-Contiguous descriptor.
type Benchmark struct{}

// New returns the Ocean-Contiguous benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "ocean-contiguous" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "multigrid elliptic solver, per-thread contiguous row bands (app)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return mgcommon.Prepare(cfg, "oceancont", bands)
}

// bands is the contiguous partitions layout: on each level, the rows a
// thread owns come from that thread's own allocation; the two boundary rows
// get their own slices. Row pointers give the shared engine uniform access.
func bands(threads, n int) [][]float64 {
	width := n + 2
	rows := make([][]float64, width)
	rows[0] = make([]float64, width)
	rows[n+1] = make([]float64, width)
	for tid := 0; tid < threads; tid++ {
		lo, hi := core.BlockRange(tid, threads, n)
		if hi == lo {
			continue
		}
		band := make([]float64, (hi-lo)*width)
		for r := lo; r < hi; r++ {
			rows[r+1], band = band[:width:width], band[width:]
		}
	}
	return rows
}

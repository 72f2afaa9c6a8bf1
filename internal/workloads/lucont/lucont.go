// Package lucont implements the LU-Contiguous kernel: the same blocked
// dense LU factorization as package lu, but with the original suite's
// "contiguous blocks" data layout — every B x B block is stored as its own
// contiguous tile, so a block update touches one dense tile instead of B
// strided rows of the global array. The suite ships both layouts precisely
// because the locality difference is measurable; reproducing both keeps
// that axis of the characterization. The factorization — phases, kernels,
// Verify — is package lucommon's, so the layout is the only difference.
package lucont

import (
	"repro/internal/core"
	"repro/internal/workloads/lucommon"
)

// Benchmark is the LU-Contiguous kernel descriptor.
type Benchmark struct{}

// New returns the LU-Contiguous benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "lu-contiguous" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "blocked dense LU with per-block contiguous tiles (kernel)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return lucommon.Prepare(cfg, "lucont", tiles)
}

// tiles allocates one dense bs x bs tile per block. One backing array keeps
// the tiles dense in memory, tile after tile — the defining property of the
// contiguous-blocks layout.
func tiles(n, bs int) ([][]float64, int) {
	backing := make([]float64, n*n)
	blocks := make([][]float64, (n/bs)*(n/bs))
	for t := range blocks {
		blocks[t], backing = backing[:bs*bs:bs*bs], backing[bs*bs:]
	}
	return blocks, bs
}

// Package lu implements the LU kernel with the original suite's
// "non-contiguous blocks" layout: the matrix is one row-major n x n array,
// and a B x B block is B strided rows of it. The factorization — phases,
// kernels, Verify — is package lucommon's, shared with package lucont,
// which stores every block as its own dense tile; the suite ships both
// layouts because the locality difference is measurable.
package lu

import (
	"repro/internal/core"
	"repro/internal/workloads/lucommon"
)

// Benchmark is the LU kernel descriptor.
type Benchmark struct{}

// New returns the LU benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "lu" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "blocked dense LU factorization without pivoting (kernel)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return lucommon.Prepare(cfg, "lu", rowMajor)
}

// rowMajor allocates one row-major n x n array; block (bi, bj) is a view
// into it starting at element (bi*bs, bj*bs), its rows n apart.
func rowMajor(n, bs int) ([][]float64, int) {
	a := make([]float64, n*n)
	nb := n / bs
	blocks := make([][]float64, nb*nb)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			off := bi*bs*n + bj*bs
			blocks[bi*nb+bj] = a[off : off+(bs-1)*n+bs]
		}
	}
	return blocks, n
}

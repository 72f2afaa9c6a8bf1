// Package lucont implements the LU-Contiguous kernel: the same blocked
// dense LU factorization as package lu, but with the original suite's
// "contiguous blocks" data layout — every B x B block is stored as its own
// contiguous tile, so a block update touches one dense tile instead of B
// strided rows of the global array. The suite ships both layouts precisely
// because the locality difference is measurable; reproducing both keeps
// that axis of the characterization.
//
// Synchronization is identical to package lu: three barrier episodes per
// outer iteration over round-robin block ownership. The tile update uses
// package lu's 2 x 4 register tiles and the same operation order.
//
// Scale mapping: test n=128/B=16, small n=256/B=16, default n=512/B=16,
// large n=1024/B=32.
package lucont

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
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

func sizes(s core.Scale) (n, block int) {
	switch s {
	case core.ScaleTest:
		return 128, 16
	case core.ScaleSmall:
		return 256, 16
	case core.ScaleDefault:
		return 512, 16
	case core.ScaleLarge:
		return 1024, 32
	default:
		return 512, 16
	}
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, block := sizes(cfg.Scale)
	if block%4 != 0 {
		return nil, fmt.Errorf("lucont: block %d is not a whole number of 2x4 update tiles", block)
	}
	nb := n / block
	rng := rand.New(rand.NewSource(cfg.Seed))
	inst := &instance{
		threads: cfg.Threads,
		n:       n,
		block:   block,
		nb:      nb,
		tiles:   make([][]float64, nb*nb),
		orig:    make([]float64, n*n),
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
	}
	// One backing array keeps tiles dense in memory, tile after tile —
	// the defining property of the contiguous-blocks layout.
	backing := make([]float64, n*n)
	for t := range inst.tiles {
		inst.tiles[t], backing = backing[:block*block:block*block], backing[block*block:]
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.Float64() - 0.5
			if i == j {
				v += float64(n)
			}
			inst.at(i, j)[0] = v
			inst.orig[i*n+j] = v
		}
	}
	return inst, nil
}

type instance struct {
	threads int
	n       int
	block   int
	nb      int
	tiles   [][]float64 // nb x nb tiles, each block x block row-major
	orig    []float64
	barrier sync4.Barrier
	ran     bool
}

// tile returns the tile at block coordinates (bi, bj).
func (in *instance) tile(bi, bj int) []float64 { return in.tiles[bi*in.nb+bj] }

// at returns a one-element slice addressing global element (i, j); used
// only during setup and verification.
func (in *instance) at(i, j int) []float64 {
	bs := in.block
	t := in.tile(i/bs, j/bs)
	off := (i%bs)*bs + j%bs
	return t[off : off+1]
}

func (in *instance) owner(bi, bj int) int { return (bi*in.nb + bj) % in.threads }

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("lucont: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	nb := in.nb
	for kb := 0; kb < nb; kb++ {
		if in.owner(kb, kb) == tid {
			factorDiag(in.tile(kb, kb), in.block)
		}
		in.barrier.Wait()

		for jb := kb + 1; jb < nb; jb++ {
			if in.owner(kb, jb) == tid {
				solveRowTile(in.tile(kb, kb), in.tile(kb, jb), in.block)
			}
		}
		for ib := kb + 1; ib < nb; ib++ {
			if in.owner(ib, kb) == tid {
				solveColTile(in.tile(kb, kb), in.tile(ib, kb), in.block)
			}
		}
		in.barrier.Wait()

		for ib := kb + 1; ib < nb; ib++ {
			for jb := kb + 1; jb < nb; jb++ {
				if in.owner(ib, jb) == tid {
					updateTile(in.tile(ib, kb), in.tile(kb, jb), in.tile(ib, jb), in.block)
				}
			}
		}
		in.barrier.Wait()
	}
}

// factorDiag performs an unblocked LU on one bs x bs tile.
func factorDiag(d []float64, bs int) {
	for k := 0; k < bs; k++ {
		pivot := d[k*bs+k]
		for i := k + 1; i < bs; i++ {
			d[i*bs+k] /= pivot
			lik := d[i*bs+k]
			for j := k + 1; j < bs; j++ {
				d[i*bs+j] -= lik * d[k*bs+j]
			}
		}
	}
}

// solveRowTile solves L00 * X = A in place on tile a (A above becomes U).
func solveRowTile(diag, a []float64, bs int) {
	for i := 1; i < bs; i++ {
		for r := 0; r < i; r++ {
			lir := diag[i*bs+r]
			for j := 0; j < bs; j++ {
				a[i*bs+j] -= lir * a[r*bs+j]
			}
		}
	}
}

// solveColTile solves X * U00 = A in place on tile a (A becomes L).
func solveColTile(diag, a []float64, bs int) {
	for j := 0; j < bs; j++ {
		ujj := diag[j*bs+j]
		for i := 0; i < bs; i++ {
			sum := a[i*bs+j]
			for r := 0; r < j; r++ {
				sum -= a[i*bs+r] * diag[r*bs+j]
			}
			a[i*bs+j] = sum / ujj
		}
	}
}

// updateTile applies c -= l * u on dense tiles, in 2 x 4 register tiles of
// c as package lu's updateInterior does: every element still gets
// c -= l[i][r]*u[r][j] for r = 0..bs-1 in order. Prepare guarantees
// bs % 4 == 0.
func updateTile(l, u, c []float64, bs int) {
	for i := 0; i < bs; i += 2 {
		l0 := l[i*bs : (i+1)*bs]
		l1 := l[(i+1)*bs : (i+2)*bs]
		c0row := c[i*bs : (i+1)*bs]
		c1row := c[(i+1)*bs : (i+2)*bs]
		for j := 0; j < bs; j += 4 {
			c0, c1, c2, c3 := c0row[j], c0row[j+1], c0row[j+2], c0row[j+3]
			d0, d1, d2, d3 := c1row[j], c1row[j+1], c1row[j+2], c1row[j+3]
			for r, x := range l0 {
				y := l1[r]
				ur := u[r*bs+j : r*bs+j+4]
				u0, u1, u2, u3 := ur[0], ur[1], ur[2], ur[3]
				c0 -= x * u0
				c1 -= x * u1
				c2 -= x * u2
				c3 -= x * u3
				d0 -= y * u0
				d1 -= y * u1
				d2 -= y * u2
				d3 -= y * u3
			}
			c0row[j], c0row[j+1], c0row[j+2], c0row[j+3] = c0, c1, c2, c3
			c1row[j], c1row[j+1], c1row[j+2], c1row[j+3] = d0, d1, d2, d3
		}
	}
}

// Verify implements core.Instance: identical probe check and backward-error
// bound to package lu, reading elements through the tiled layout.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("lucont: verify before run")
	}
	n := in.n
	normA := infNorm(in.orig, n)
	rng := rand.New(rand.NewSource(12345))
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	want := make([]float64, n)
	get := func(i, j int) float64 { return in.at(i, j)[0] }
	for probe := 0; probe < 3; probe++ {
		var normX float64
		for i := range x {
			x[i] = rng.Float64() - 0.5
			normX = math.Max(normX, math.Abs(x[i]))
		}
		for i := 0; i < n; i++ {
			var sum float64
			for j := i; j < n; j++ {
				sum += get(i, j) * x[j]
			}
			y[i] = sum
		}
		for i := 0; i < n; i++ {
			sum := y[i]
			for j := 0; j < i; j++ {
				sum += get(i, j) * y[j]
			}
			z[i] = sum
		}
		for i := 0; i < n; i++ {
			var sum float64
			row := in.orig[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				sum += row[j] * x[j]
			}
			want[i] = sum
		}
		tol := 8 * eps * float64(n) * normA * normX
		for i := 0; i < n; i++ {
			if d := math.Abs(z[i] - want[i]); d > tol {
				return fmt.Errorf("lucont: probe %d row %d: L*U*x=%g, A*x=%g (|diff|=%g, tol=%g)",
					probe, i, z[i], want[i], d, tol)
			}
		}
	}
	return nil
}

// eps is float64's machine epsilon.
const eps = 0x1p-52

// infNorm returns the largest absolute row sum of the n x n matrix a.
func infNorm(a []float64, n int) float64 {
	var norm float64
	for i := 0; i < n; i++ {
		var sum float64
		for _, v := range a[i*n : (i+1)*n] {
			sum += math.Abs(v)
		}
		norm = math.Max(norm, sum)
	}
	return norm
}

// Package lucommon implements the blocked dense LU factorization both LU
// programs share: an n x n matrix factored without pivoting (the input is
// made diagonally dominant, as in the original benchmark, so pivoting is
// unnecessary).
//
// The parallel structure follows the Splash-2 code: the matrix is divided
// into B x B blocks owned round-robin by threads; each outer iteration k
// factors the diagonal block, then the owners update their perimeter
// blocks, then their interior blocks, with barriers between the three
// sub-phases. LU is the most barrier-intensive kernel of the suite
// (3 episodes per outer iteration), which is why the barrier rewrite in
// Splash-4 moves it so much.
//
// The engine is storage-agnostic: it sees a block only as a slice and a row
// stride, element (i, j) of a block at index i*stride+j. The lu package
// backs the blocks with views into one row-major n x n array (stride n,
// "non-contiguous blocks"), the lucont package with one dense tile per
// block (stride B, "contiguous blocks") — the two layouts the original
// suite ships. Both factor to the same bits.
//
// The interior update, three quarters of the run, keeps a 2 x 4 tile of the
// destination block in registers for its whole inner-product loop, as a
// compiler makes of the original's loop nest; every element still goes
// through the same operations in the same order, so the factored matrix is
// the same bits as the row-at-a-time loop's.
//
// Scale mapping: test n=128/B=16, small n=256/B=16, default n=512/B=16 (the
// Splash default input), large n=1024/B=32.
//
// Memory: the blocks alone, 8*n^2 bytes (2 MiB at default scale). No copy of
// the input is kept: Verify regenerates it from the seed through inputRow,
// row by row as Prepare drew it.
package lucommon

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

func sizes(s core.Scale) (n, block int) {
	switch s {
	case core.ScaleTest:
		return 128, 16
	case core.ScaleSmall:
		return 256, 16
	case core.ScaleLarge:
		return 1024, 32
	default:
		return 512, 16
	}
}

// Layout allocates an n x n matrix as (n/bs)^2 blocks of bs x bs. It returns
// the blocks, block (bi, bj) at index bi*(n/bs)+bj, and their common row
// stride: element (i, j) of a block is block[i*stride+j].
type Layout func(n, bs int) (blocks [][]float64, stride int)

// LU is one factorization; it implements core.Instance.
type LU struct {
	name    string // error prefix
	threads int
	n       int
	block   int
	nb      int // blocks per dimension
	blocks  [][]float64
	stride  int
	seed    int64 // the input is regenerated from it by Verify
	barrier sync4.Barrier
	ran     bool
}

// Prepare builds the seeded input in the storage layout allocates; name
// prefixes its errors.
func Prepare(cfg core.Config, name string, layout Layout) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, block := sizes(cfg.Scale)
	if block%4 != 0 {
		return nil, fmt.Errorf("%s: block %d is not a whole number of 2x4 update tiles", name, block)
	}
	m := &LU{
		name:    name,
		threads: cfg.Threads,
		n:       n,
		block:   block,
		nb:      n / block,
		seed:    cfg.Seed,
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
	}
	m.blocks, m.stride = layout(n, block)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		for bj := 0; bj < m.nb; bj++ {
			inputRow(rng, m.row(i, bj), i-bj*block, n)
		}
	}
	return m, nil
}

// inputRow draws the next len(row) elements of the seed's input, rng's
// stream taken row-major, into row, and adds n to the element at diag, if
// row holds it: diagonal dominance guarantees a stable pivot-free
// factorization, matching the original input generator. Prepare and Verify
// share it, so Verify checks the factors against exactly the input Run was
// given.
func inputRow(rng *rand.Rand, row []float64, diag, n int) {
	for j := range row {
		row[j] = rng.Float64() - 0.5
	}
	if diag >= 0 && diag < len(row) {
		row[diag] += float64(n)
	}
}

// Size returns the matrix order and the block size.
func (m *LU) Size() (n, block int) { return m.n, m.block }

// At returns element (i, j) of the matrix, wherever the layout stores it.
func (m *LU) At(i, j int) *float64 { return &m.row(i, j/m.block)[j%m.block] }

// row returns the B elements of matrix row i that block column bj holds.
func (m *LU) row(i, bj int) []float64 {
	off := (i % m.block) * m.stride
	return m.blocks[(i/m.block)*m.nb+bj][off : off+m.block]
}

// blk returns block (bi, bj).
func (m *LU) blk(bi, bj int) []float64 { return m.blocks[bi*m.nb+bj] }

// owner returns the thread that owns block (bi, bj): a 2-D round-robin
// scatter, as in the original decomposition.
func (m *LU) owner(bi, bj int) int { return (bi*m.nb + bj) % m.threads }

// Run implements core.Instance.
func (m *LU) Run() error {
	if m.ran {
		return fmt.Errorf("%s: instance reused", m.name)
	}
	m.ran = true
	core.Parallel(m.threads, m.worker)
	return nil
}

func (m *LU) worker(tid int) {
	bs, nb, s := m.block, m.nb, m.stride
	for kb := 0; kb < nb; kb++ {
		diag := m.blk(kb, kb)
		// Phase 1: the diagonal block's owner factors it in place.
		if m.owner(kb, kb) == tid {
			factorDiag(diag, s, bs)
		}
		m.barrier.Wait()

		// Phase 2: perimeter blocks. Row blocks A[kb][j] become U
		// pieces (solve L00 * X = A); column blocks A[i][kb] become
		// L pieces (solve X * U00 = A).
		for jb := kb + 1; jb < nb; jb++ {
			if m.owner(kb, jb) == tid {
				solveRow(diag, m.blk(kb, jb), s, bs)
			}
		}
		for ib := kb + 1; ib < nb; ib++ {
			if m.owner(ib, kb) == tid {
				solveCol(diag, m.blk(ib, kb), s, bs)
			}
		}
		m.barrier.Wait()

		// Phase 3: interior update A[i][j] -= L[i][kb] * U[kb][j].
		for ib := kb + 1; ib < nb; ib++ {
			for jb := kb + 1; jb < nb; jb++ {
				if m.owner(ib, jb) == tid {
					update(m.blk(ib, kb), m.blk(kb, jb), m.blk(ib, jb), s, bs)
				}
			}
		}
		m.barrier.Wait()
	}
}

// factorDiag performs an unblocked LU on the bs x bs block d in place.
func factorDiag(d []float64, s, bs int) {
	for k := 0; k < bs; k++ {
		pivot := d[k*s+k]
		for i := k + 1; i < bs; i++ {
			d[i*s+k] /= pivot
			lik := d[i*s+k]
			for j := k + 1; j < bs; j++ {
				d[i*s+j] -= lik * d[k*s+j]
			}
		}
	}
}

// solveRow solves L00 * X = A in place on block a, where L00 is the
// unit-lower part of the factored diagonal block: a becomes a U piece.
func solveRow(diag, a []float64, s, bs int) {
	for i := 1; i < bs; i++ {
		for r := 0; r < i; r++ {
			lir := diag[i*s+r]
			for j := 0; j < bs; j++ {
				a[i*s+j] -= lir * a[r*s+j]
			}
		}
	}
}

// solveCol solves X * U00 = A in place on block a, where U00 is the upper
// part of the factored diagonal block: a becomes an L piece.
func solveCol(diag, a []float64, s, bs int) {
	for j := 0; j < bs; j++ {
		ujj := diag[j*s+j]
		for i := 0; i < bs; i++ {
			sum := a[i*s+j]
			for r := 0; r < j; r++ {
				sum -= a[i*s+r] * diag[r*s+j]
			}
			a[i*s+j] = sum / ujj
		}
	}
}

// update applies c -= l * u. It walks c in 2 x 4 tiles held in registers
// for the whole r loop, loading each u[r][j..j+3] once for both rows; every
// element still gets c -= l[i][r]*u[r][j] for r = 0..bs-1 in order, so the
// result is the same bits as the row-at-a-time loop. Prepare guarantees
// bs % 4 == 0.
func update(l, u, c []float64, s, bs int) {
	for i := 0; i < bs; i += 2 {
		l0 := l[i*s : i*s+bs]
		l1 := l[(i+1)*s : (i+1)*s+bs]
		c0row := c[i*s : i*s+bs]
		c1row := c[(i+1)*s : (i+1)*s+bs]
		for j := 0; j < bs; j += 4 {
			c0, c1, c2, c3 := c0row[j], c0row[j+1], c0row[j+2], c0row[j+3]
			d0, d1, d2, d3 := c1row[j], c1row[j+1], c1row[j+2], c1row[j+3]
			for r, x := range l0 {
				y := l1[r]
				ur := u[r*s+j : r*s+j+4]
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

// Verify implements core.Instance: it checks L*U == A_orig, the input as
// regenerated from the seed, by probing with random vectors (y = U*x,
// z = L*y must equal A_orig*x), which is O(n^2) per probe and catches any
// misfactored block. The bound is a backward error, 8*eps*n*|A|inf*|x|inf:
// over seeds 1, 3, 7 and 77 the float64 kernel's worst row measures
// 0.02-0.06 of eps*n*|A|inf*|x|inf at n = 128, 256 and 512, and a kernel
// that rounds every update to float32 measures 1.2e7-1.4e7 of it.
func (m *LU) Verify() error {
	if !m.ran {
		return fmt.Errorf("%s: verify before run", m.name)
	}
	n := m.n
	// The factors, gathered row-major out of the layout.
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for bj := 0; bj < m.nb; bj++ {
			copy(a[i*n+bj*m.block:], m.row(i, bj))
		}
	}
	orig := make([]float64, n*n)
	input := rand.New(rand.NewSource(m.seed))
	for i := 0; i < n; i++ {
		inputRow(input, orig[i*n:(i+1)*n], i, n)
	}
	normA := infNorm(orig, n)
	rng := rand.New(rand.NewSource(12345))
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	want := make([]float64, n)
	for probe := 0; probe < 3; probe++ {
		var normX float64
		for i := range x {
			x[i] = rng.Float64() - 0.5
			normX = math.Max(normX, math.Abs(x[i]))
		}
		// y = U * x (U = upper triangle of a, including diagonal).
		for i := 0; i < n; i++ {
			var sum float64
			row := a[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				sum += row[j] * x[j]
			}
			y[i] = sum
		}
		// z = L * y (L = unit lower triangle of a).
		for i := 0; i < n; i++ {
			sum := y[i]
			row := a[i*n : (i+1)*n]
			for j := 0; j < i; j++ {
				sum += row[j] * y[j]
			}
			z[i] = sum
		}
		// want = A_orig * x.
		for i := 0; i < n; i++ {
			var sum float64
			row := orig[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				sum += row[j] * x[j]
			}
			want[i] = sum
		}
		tol := 8 * eps * float64(n) * normA * normX
		for i := 0; i < n; i++ {
			if d := math.Abs(z[i] - want[i]); d > tol {
				return fmt.Errorf("%s: probe %d row %d: L*U*x=%g, A*x=%g (|diff|=%g, tol=%g)",
					m.name, probe, i, z[i], want[i], d, tol)
			}
		}
	}
	return nil
}

// WriteResult implements core.ResultWriter: the factors row-major, element
// (i, j) at i*n+j whatever the layout, so both LU programs write the same
// bytes for the same factors.
func (m *LU) WriteResult(w io.Writer) error {
	for i := 0; i < m.n; i++ {
		for bj := 0; bj < m.nb; bj++ {
			if err := binary.Write(w, binary.LittleEndian, m.row(i, bj)); err != nil {
				return err
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

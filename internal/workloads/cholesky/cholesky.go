// Package cholesky implements the CHOLESKY kernel: blocked dense Cholesky
// factorization (A = L*L^T) of a symmetric positive-definite matrix with
// dynamic task distribution.
//
// Fidelity note (see DESIGN.md): the original kernel factors *sparse*
// matrices from input files we do not have, scheduling supernode tasks from
// a shared work pool. The dense blocked variant here keeps the
// synchronization pattern that matters for the suite comparison — threads
// claim triangular-solve and trailing-update tasks from shared counters
// (lock-protected ints in Splash-3, fetch-and-add atomics in Splash-4) with
// barriers between the per-iteration phases — while replacing the sparse
// input with a synthetic SPD matrix.
//
// The trailing update computes eight dot products at once (two rows of one
// block against four of the other), each summed in the same order as one
// dot product at a time, so the factor is the same bits.
//
// Scale mapping: test n=128/B=16, small n=256/B=16, default n=512/B=16,
// large n=1024/B=32.
//
// Memory: the matrix alone, 8*n^2 bytes (2 MiB at default scale). No copy of
// the input is kept: Verify regenerates it from the seed through fillSPD, as
// Prepare drew it.
package cholesky

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

// Benchmark is the CHOLESKY kernel descriptor.
type Benchmark struct{}

// New returns the CHOLESKY benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "cholesky" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "blocked dense Cholesky factorization with dynamic task pool (kernel)"
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
		return nil, fmt.Errorf("cholesky: block %d is not a whole number of 2x4 update tiles", block)
	}
	inst := &instance{
		threads: cfg.Threads,
		n:       n,
		block:   block,
		nb:      n / block,
		seed:    cfg.Seed,
		a:       make([]float64, n*n),
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
	}
	fillSPD(inst.a, n, cfg.Seed)
	// One pair of task counters per outer iteration avoids reset races.
	inst.trsmCtr = make([]sync4.Counter, inst.nb)
	inst.updCtr = make([]sync4.Counter, inst.nb)
	for k := range inst.trsmCtr {
		inst.trsmCtr[k] = cfg.Kit.NewCounter()
		inst.updCtr[k] = cfg.Kit.NewCounter()
	}
	return inst, nil
}

// fillSPD draws the seed's n x n input into a: symmetric and strongly
// diagonally dominant, so positive definite. Prepare and Verify share it, so
// Verify checks the factor against exactly the input Run was given.
func fillSPD(a []float64, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			a[i*n+j] = v
			a[j*n+i] = v
		}
		a[i*n+i] += float64(n)
	}
}

type instance struct {
	threads int
	n       int
	block   int
	nb      int
	seed    int64 // the input is regenerated from it by Verify
	a       []float64
	barrier sync4.Barrier
	trsmCtr []sync4.Counter // dynamic task tickets for the solve phase
	updCtr  []sync4.Counter // dynamic task tickets for the update phase
	ran     bool
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("cholesky: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	bs, nb := in.block, in.nb
	for kb := 0; kb < nb; kb++ {
		k0 := kb * bs
		if kb%in.threads == tid {
			in.factorDiag(k0)
		}
		in.barrier.Wait()

		// Triangular solves below the diagonal, claimed dynamically.
		m := nb - 1 - kb
		for {
			t := in.trsmCtr[kb].Inc() - 1
			if t >= int64(m) {
				break
			}
			in.solveBlock((kb+1+int(t))*bs, k0)
		}
		in.barrier.Wait()

		// Trailing symmetric update over the lower triangle of the
		// remaining blocks, claimed dynamically via triangular task
		// ids t -> (row r, col c) with c <= r.
		total := int64(m) * int64(m+1) / 2
		for {
			t := in.updCtr[kb].Inc() - 1
			if t >= total {
				break
			}
			r := int((math.Sqrt(float64(8*t+1)) - 1) / 2)
			// Guard against floating-point rounding at triangle
			// boundaries.
			for int64(r+1)*int64(r+2)/2 <= t {
				r++
			}
			for int64(r)*int64(r+1)/2 > t {
				r--
			}
			c := int(t - int64(r)*int64(r+1)/2)
			in.updateBlock((kb+1+r)*bs, (kb+1+c)*bs, k0)
		}
		in.barrier.Wait()
	}
}

// factorDiag performs an unblocked Cholesky on the bs x bs diagonal block at
// (k0, k0), writing L into the lower triangle.
func (in *instance) factorDiag(k0 int) {
	n, bs := in.n, in.block
	for k := 0; k < bs; k++ {
		d := math.Sqrt(in.a[(k0+k)*n+k0+k])
		in.a[(k0+k)*n+k0+k] = d
		for i := k + 1; i < bs; i++ {
			in.a[(k0+i)*n+k0+k] /= d
		}
		for j := k + 1; j < bs; j++ {
			ajk := in.a[(k0+j)*n+k0+k]
			for i := j; i < bs; i++ {
				in.a[(k0+i)*n+k0+j] -= in.a[(k0+i)*n+k0+k] * ajk
			}
		}
	}
}

// solveBlock computes L[i0][k0] = A[i0][k0] * L00^{-T} where L00 is the
// factored diagonal block at (k0, k0).
func (in *instance) solveBlock(i0, k0 int) {
	n, bs := in.n, in.block
	for i := 0; i < bs; i++ {
		row := in.a[(i0+i)*n+k0 : (i0+i)*n+k0+bs]
		for j := 0; j < bs; j++ {
			sum := row[j]
			lrow := in.a[(k0+j)*n+k0 : (k0+j)*n+k0+bs]
			for r := 0; r < j; r++ {
				sum -= row[r] * lrow[r]
			}
			row[j] = sum / lrow[j]
		}
	}
}

// updateBlock applies A[i0][j0] -= L[i0][k0] * L[j0][k0]^T. It computes
// eight dot products together, rows i, i+1 of L[i0] against rows j..j+3 of
// L[j0], so eight independent add chains share each load; every sum still
// runs over r = 0..bs-1 in order, so the result is the same bits as one dot
// product at a time. Prepare guarantees bs % 4 == 0.
func (in *instance) updateBlock(i0, j0, k0 int) {
	n, bs := in.n, in.block
	for i := 0; i < bs; i += 2 {
		li0 := in.a[(i0+i)*n+k0 : (i0+i)*n+k0+bs]
		li1 := in.a[(i0+i+1)*n+k0 : (i0+i+1)*n+k0+bs]
		a0 := in.a[(i0+i)*n+j0 : (i0+i)*n+j0+bs]
		a1 := in.a[(i0+i+1)*n+j0 : (i0+i+1)*n+j0+bs]
		for j := 0; j < bs; j += 4 {
			lj0 := in.a[(j0+j)*n+k0 : (j0+j)*n+k0+bs]
			lj1 := in.a[(j0+j+1)*n+k0 : (j0+j+1)*n+k0+bs]
			lj2 := in.a[(j0+j+2)*n+k0 : (j0+j+2)*n+k0+bs]
			lj3 := in.a[(j0+j+3)*n+k0 : (j0+j+3)*n+k0+bs]
			var s0, s1, s2, s3, t0, t1, t2, t3 float64
			for r, x := range li0 {
				y := li1[r]
				p0, p1, p2, p3 := lj0[r], lj1[r], lj2[r], lj3[r]
				s0 += x * p0
				s1 += x * p1
				s2 += x * p2
				s3 += x * p3
				t0 += y * p0
				t1 += y * p1
				t2 += y * p2
				t3 += y * p3
			}
			a0[j] -= s0
			a0[j+1] -= s1
			a0[j+2] -= s2
			a0[j+3] -= s3
			a1[j] -= t0
			a1[j+1] -= t1
			a1[j+2] -= t2
			a1[j+3] -= t3
		}
	}
}

// Verify implements core.Instance: probes L*L^T*x against A_orig*x, A_orig
// the input as regenerated from the seed, with random vectors. The bound is a backward error, 8*eps*n*|A|inf*|x|inf:
// over seeds 1, 3, 7 and 77 the float64 kernel's worst row measures
// 0.02-0.07 of eps*n*|A|inf*|x|inf at n = 128, 256 and 512, and a kernel
// that rounds every update to float32 measures 3.0e6-3.8e6 of it.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("cholesky: verify before run")
	}
	n := in.n
	orig := make([]float64, n*n)
	fillSPD(orig, n, in.seed)
	normA := infNorm(orig, n)
	rng := rand.New(rand.NewSource(54321))
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
		// y = L^T * x: y[i] = sum_{j >= i} L[j][i] * x[j].
		for i := 0; i < n; i++ {
			var sum float64
			for j := i; j < n; j++ {
				sum += in.a[j*n+i] * x[j]
			}
			y[i] = sum
		}
		// z = L * y: z[i] = sum_{j <= i} L[i][j] * y[j].
		for i := 0; i < n; i++ {
			var sum float64
			row := in.a[i*n : (i+1)*n]
			for j := 0; j <= i; j++ {
				sum += row[j] * y[j]
			}
			z[i] = sum
		}
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
				return fmt.Errorf("cholesky: probe %d row %d: L*L^T*x=%g, A*x=%g (|diff|=%g, tol=%g)",
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

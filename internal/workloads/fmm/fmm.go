// Package fmm implements the FMM application: a 2-D adaptive-precision fast
// multipole method for the potential of point charges under the logarithmic
// kernel, with the classic phase structure — particle binning, P2M, upward
// M2M pass, per-level M2L interaction lists, downward L2L pass, and a final
// evaluation with near-field direct sums.
//
// Synchronization mirrors the original: per-box locks guard concurrent
// particle binning, each level transition is a barrier, the expensive M2L
// phase claims boxes dynamically from per-level counters, and the total
// interaction energy is a global floating-point reduction.
//
// Fidelity note (see DESIGN.md): the tree is uniform rather than adaptive
// and the expansion order is fixed (p = 12) instead of accuracy-driven; the
// translation operators, interaction lists and parallel phase layout are the
// standard Greengard-Rokhlin formulation the original implements.
//
// Scale mapping (particles/levels): test 512/3, small 2048/4, default
// 8192/5, large 32768/6.
package fmm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	expansionP = 12 // expansion terms (a_1..a_p / b_0..b_p)
	maxP       = 16
	m2lChunk   = 8 // boxes claimed per counter fetch in the M2L phase
)

func init() { initBinom(2 * maxP) }

// Benchmark is the FMM descriptor.
type Benchmark struct{}

// New returns the FMM benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "fmm" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "2-D fast multipole method for log-kernel potentials (app)"
}

func params(s core.Scale) (n, levels int) {
	switch s {
	case core.ScaleTest:
		return 512, 3
	case core.ScaleSmall:
		return 2048, 4
	case core.ScaleDefault:
		return 8192, 5
	case core.ScaleLarge:
		return 32768, 6
	default:
		return 8192, 5
	}
}

type instance struct {
	threads int
	n       int
	levels  int // finest level; level l has 4^l boxes

	z     []complex128 // particle positions in the unit square
	q     []float64    // charges
	phi   []float64    // resulting potentials
	field []complex128 // resulting complex field psi'(z): E = (Re, -Im)

	head    []int32 // finest-level box -> first particle
	next    []int32
	boxLock []sync4.Locker

	mpole [][][]complex128 // [level][box][p+1]
	local [][][]complex128

	barrier sync4.Barrier
	m2lCtr  []sync4.Counter // per-level dynamic box claims
	evalCtr sync4.Counter
	energy  sync4.Accumulator

	ran bool
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, levels := params(cfg.Scale)
	if cfg.Threads > n {
		return nil, fmt.Errorf("fmm: threads (%d) exceed particles (%d)", cfg.Threads, n)
	}
	mFine := 1 << levels
	nFine := mFine * mFine
	in := &instance{
		threads: cfg.Threads,
		n:       n,
		levels:  levels,
		z:       make([]complex128, n),
		q:       make([]float64, n),
		phi:     make([]float64, n),
		field:   make([]complex128, n),
		head:    make([]int32, nFine),
		next:    make([]int32, n),
		boxLock: make([]sync4.Locker, nFine),
		mpole:   make([][][]complex128, levels+1),
		local:   make([][][]complex128, levels+1),
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
		m2lCtr:  make([]sync4.Counter, levels+1),
		evalCtr: cfg.Kit.NewCounter(),
		energy:  cfg.Kit.NewAccumulator(),
	}
	for b := range in.head {
		in.head[b] = -1
		in.boxLock[b] = cfg.Kit.NewLock()
	}
	for l := 2; l <= levels; l++ {
		m := 1 << l
		in.mpole[l] = make([][]complex128, m*m)
		in.local[l] = make([][]complex128, m*m)
		for b := 0; b < m*m; b++ {
			in.mpole[l][b] = make([]complex128, expansionP+1)
			in.local[l][b] = make([]complex128, expansionP+1)
		}
		in.m2lCtr[l] = cfg.Kit.NewCounter()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		in.z[i] = complex(rng.Float64(), rng.Float64())
		in.q[i] = (0.5 + rng.Float64()) / float64(n)
	}
	return in, nil
}

// center returns the center of box b at level l.
func center(l, b int) complex128 {
	m := 1 << l
	ix := b % m
	iy := b / m
	s := 1 / float64(m)
	return complex((float64(ix)+0.5)*s, (float64(iy)+0.5)*s)
}

// boxOf returns the finest-level box of particle i.
func (in *instance) boxOf(i int) int {
	m := 1 << in.levels
	ix := int(real(in.z[i]) * float64(m))
	iy := int(imag(in.z[i]) * float64(m))
	if ix >= m {
		ix = m - 1
	}
	if iy >= m {
		iy = m - 1
	}
	return iy*m + ix
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("fmm: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	L := in.levels
	mFine := 1 << L
	nFine := mFine * mFine

	// Phase 1: bin particles into the finest boxes under per-box locks.
	pLo, pHi := core.BlockRange(tid, in.threads, in.n)
	for i := pLo; i < pHi; i++ {
		b := in.boxOf(i)
		l := in.boxLock[b]
		l.Lock()
		in.next[i] = in.head[b]
		in.head[b] = int32(i)
		l.Unlock()
	}
	in.barrier.Wait()

	// Phase 2: P2M on owned finest boxes.
	bLo, bHi := core.BlockRange(tid, in.threads, nFine)
	for b := bLo; b < bHi; b++ {
		c := center(L, b)
		coeffs := in.mpole[L][b]
		for i := in.head[b]; i >= 0; i = in.next[i] {
			p2m(coeffs, in.z[i], c, in.q[i])
		}
	}
	in.barrier.Wait()

	// Phase 3: upward M2M, one barrier per level.
	for l := L - 1; l >= 2; l-- {
		m := 1 << l
		lo, hi := core.BlockRange(tid, in.threads, m*m)
		for b := lo; b < hi; b++ {
			ix := b % m
			iy := b / m
			zp := center(l, b)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					cb := (2*iy+dy)*(2*m) + 2*ix + dx
					m2m(in.mpole[l][b], in.mpole[l+1][cb], center(l+1, cb), zp)
				}
			}
		}
		in.barrier.Wait()
	}

	// Phase 4: M2L over interaction lists, boxes claimed dynamically.
	for l := 2; l <= L; l++ {
		m := 1 << l
		total := int64(m * m)
		for {
			start := (in.m2lCtr[l].Add(1) - 1) * m2lChunk
			if start >= total {
				break
			}
			end := start + m2lChunk
			if end > total {
				end = total
			}
			for b := int(start); b < int(end); b++ {
				in.interact(l, b)
			}
		}
		in.barrier.Wait()
	}

	// Phase 5: downward L2L, one barrier per level.
	for l := 2; l < L; l++ {
		m := 1 << l
		lo, hi := core.BlockRange(tid, in.threads, m*m)
		for b := lo; b < hi; b++ {
			ix := b % m
			iy := b / m
			zp := center(l, b)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					cb := (2*iy+dy)*(2*m) + 2*ix + dx
					l2l(in.local[l+1][cb], in.local[l][b], zp, center(l+1, cb))
				}
			}
		}
		in.barrier.Wait()
	}

	// Phase 6: evaluation — far field from the finest local expansion,
	// near field by direct summation over the 3x3 box neighborhood.
	var localEnergy float64
	for {
		b := int(in.evalCtr.Inc() - 1)
		if b >= nFine {
			break
		}
		localEnergy += in.evaluateBox(b)
	}
	in.energy.Add(localEnergy)
	in.barrier.Wait()
}

// interact accumulates M2L translations from box b's interaction list: the
// children of its parent's neighbors that are not its own neighbors.
func (in *instance) interact(l, b int) {
	m := 1 << l
	ix := b % m
	iy := b / m
	zl := center(l, b)
	px, py := ix/2, iy/2
	mp := m / 2
	dst := in.local[l][b]
	for ny := py - 1; ny <= py+1; ny++ {
		for nx := px - 1; nx <= px+1; nx++ {
			if nx < 0 || ny < 0 || nx >= mp || ny >= mp {
				continue
			}
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					cx := 2*nx + dx
					cy := 2*ny + dy
					if abs(cx-ix) <= 1 && abs(cy-iy) <= 1 {
						continue // near neighbor: handled directly
					}
					cb := cy*m + cx
					m2l(dst, in.mpole[l][cb], center(l, cb), zl)
				}
			}
		}
	}
}

// evaluateBox computes final potentials for the particles of finest box b
// and returns their energy contribution (sum q_i phi_i).
func (in *instance) evaluateBox(b int) float64 {
	L := in.levels
	m := 1 << L
	ix := b % m
	iy := b / m
	c := center(L, b)
	coeffs := in.local[L][b]

	var energy float64
	for i := in.head[b]; i >= 0; i = in.next[i] {
		phi := real(evalLocal(coeffs, c, in.z[i]))
		grad := evalLocalGrad(coeffs, c, in.z[i])
		// Near field: same box and the 8 surrounding boxes.
		for ny := iy - 1; ny <= iy+1; ny++ {
			for nx := ix - 1; nx <= ix+1; nx++ {
				if nx < 0 || ny < 0 || nx >= m || ny >= m {
					continue
				}
				for j := in.head[ny*m+nx]; j >= 0; j = in.next[j] {
					if j == i {
						continue
					}
					d := in.z[int(i)] - in.z[j]
					phi += in.q[j] * math.Log(cmplx.Abs(d))
					grad += complex(in.q[j], 0) / d
				}
			}
		}
		in.phi[i] = phi
		in.field[i] = grad
		energy += in.q[i] * phi
	}
	return energy
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// directPotential is the O(n) oracle for one particle.
func (in *instance) directPotential(i int) float64 {
	var phi float64
	for j := 0; j < in.n; j++ {
		if j == i {
			continue
		}
		phi += in.q[j] * math.Log(cmplx.Abs(in.z[i]-in.z[j]))
	}
	return phi
}

// directField is the O(n) field oracle: psi'(z_i) = sum q_j / (z_i - z_j).
func (in *instance) directField(i int) complex128 {
	var f complex128
	for j := 0; j < in.n; j++ {
		if j == i {
			continue
		}
		f += complex(in.q[j], 0) / (in.z[i] - in.z[j])
	}
	return f
}

// WriteResult implements core.ResultWriter: the potentials, the fields and
// the energy.
func (in *instance) WriteResult(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, in.phi); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, in.field); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, in.energy.Load())
}

// Verify implements core.Instance: sampled potentials must match the direct
// sum to within the truncation error of a p=12 expansion, and the energy
// reduction must equal the sum over the stored potentials.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("fmm: verify before run")
	}
	samples := 64
	if samples > in.n {
		samples = in.n
	}
	stride := in.n / samples
	for k := 0; k < samples; k++ {
		i := k * stride
		want := in.directPotential(i)
		if d := math.Abs(in.phi[i] - want); d > 1e-3*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("fmm: particle %d potential %g, direct %g (|diff|=%g)", i, in.phi[i], want, d)
		}
		wantF := in.directField(i)
		if d := cmplx.Abs(in.field[i] - wantF); d > 5e-3*math.Max(1, cmplx.Abs(wantF)) {
			return fmt.Errorf("fmm: particle %d field %v, direct %v (|diff|=%g)", i, in.field[i], wantF, d)
		}
	}
	var want float64
	for i := 0; i < in.n; i++ {
		want += in.q[i] * in.phi[i]
	}
	got := in.energy.Load()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("fmm: energy reduction %g, direct sum %g", got, want)
	}
	return nil
}

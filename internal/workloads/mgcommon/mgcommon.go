// Package mgcommon implements the parallel multigrid engine both OCEAN
// variants share — the original benchmark's core is a multigrid solve of
// elliptic equations, and its trademark synchronization density comes from
// the per-level work: every red/black half-sweep, restriction and
// prolongation is barrier-separated, and every V-cycle ends with a global
// residual reduction all threads read to decide convergence together.
//
// The engine is storage-agnostic: callers hand it row slices ([][]float64,
// one per grid row including the boundary ring). The ocean package backs
// them with one global allocation ("non-contiguous partitions"), the
// oceancont package with one contiguous band per thread ("contiguous
// partitions") — the two layouts the original suite ships.
//
// The restriction computes each fine residual once, into three rolling rows
// per thread that NewSolver allocates, instead of once per full-weighting
// stencil that reads it (about 2.25 times); the stencil sums the same values
// in the same order, so every grid is the same bits.
package mgcommon

import (
	"math"

	"repro/internal/core"
	"repro/internal/sync4"
)

// smoothSweeps is the number of red-black Gauss-Seidel sweeps per level on
// the way down and up; coarseSweeps finishes the coarsest grid.
const (
	smoothSweeps = 2
	coarseSweeps = 30
	coarsestN    = 7 // stop coarsening at a 7x7 interior
)

// Level is one grid of the hierarchy. U and F hold n+2 rows of n+2 cells
// (interior n x n plus the boundary ring); H is the mesh width.
type Level struct {
	N int
	H float64
	U [][]float64
	F [][]float64
}

// Solver runs V-cycles over a prebuilt hierarchy.
type Solver struct {
	levels  []Level
	threads int
	barrier sync4.Barrier
	resid   []sync4.Accumulator // per-cycle residual reduction
	rows    [][]float64         // per thread: three finest-width residual rows for restrictResidual
	tol     float64
	maxCyc  int
	cycles  int
}

// Allocator builds the row storage for one level: it returns n+2 row
// slices, each n+2 long. The layout (global vs per-thread bands) is the
// caller's choice; rows are only ever indexed, never reallocated.
type Allocator func(n int) [][]float64

// NewSolver builds the hierarchy for an n x n interior with the finest
// right-hand side filled by fillF. n+1 must be a power of two and n >=
// coarsestN (interiors of 2^k - 1 points, so every coarse grid point
// coincides exactly with an even-indexed fine point — the vertex-centered
// alignment multigrid needs). The finest U starts at zero with a zero
// boundary.
func NewSolver(n, threads int, kit sync4.Kit, alloc Allocator, fillF func(i, j int, h float64) float64) *Solver {
	if (n+1)&n != 0 || n < coarsestN {
		panic("mgcommon: interior size must be 2^k - 1 and >= 7")
	}
	s := &Solver{
		threads: threads,
		barrier: kit.NewBarrier(threads),
		tol:     1e-8 * float64(n),
		maxCyc:  50,
	}
	for sz := n; sz >= coarsestN; sz = (sz - 1) / 2 {
		h := 1 / float64(sz+1)
		lv := Level{N: sz, H: h, U: alloc(sz), F: alloc(sz)}
		s.levels = append(s.levels, lv)
	}
	fine := s.levels[0]
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			fine.F[i][j] = fillF(i, j, fine.H)
		}
	}
	s.resid = make([]sync4.Accumulator, s.maxCyc)
	for i := range s.resid {
		s.resid[i] = kit.NewAccumulator()
	}
	s.rows = make([][]float64, threads)
	for t := range s.rows {
		s.rows[t] = make([]float64, 3*(n+2))
	}
	return s
}

// Fine returns the finest level (the solution grid).
func (s *Solver) Fine() Level { return s.levels[0] }

// Cycles returns how many V-cycles the last Solve needed.
func (s *Solver) Cycles() int { return s.cycles }

// Converged reports whether the last Solve hit the tolerance.
func (s *Solver) Converged() bool { return s.cycles < s.maxCyc }

// Solve runs V-cycles from all workers until the scaled fine-grid residual
// drops below tolerance. Every worker calls Solve with its thread id; the
// call returns for all of them after the same cycle.
func (s *Solver) Solve(tid int) {
	for cyc := 0; cyc < s.maxCyc; cyc++ {
		s.vcycle(tid, 0)

		// Global residual reduction on the finest grid.
		fine := s.levels[0]
		lo, hi := core.BlockRange(tid, s.threads, fine.N)
		var local float64
		h2 := fine.H * fine.H
		for i := lo + 1; i <= hi; i++ {
			row, frow := fine.U[i], fine.F[i]
			up, down := fine.U[i-1], fine.U[i+1]
			for j := 1; j <= fine.N; j++ {
				r := (up[j]+down[j]+row[j-1]+row[j+1]-4*row[j])/h2 - frow[j]
				local += r * r
			}
		}
		s.resid[cyc].Add(local)
		s.barrier.Wait()
		norm := math.Sqrt(s.resid[cyc].Load()) * fine.H
		if norm < s.tol {
			if tid == 0 {
				s.cycles = cyc + 1
			}
			return
		}
	}
	if tid == 0 {
		s.cycles = s.maxCyc
	}
}

// vcycle runs one V-cycle from level l downward and back.
func (s *Solver) vcycle(tid, l int) {
	lv := s.levels[l]
	if l == len(s.levels)-1 {
		s.smooth(tid, lv, coarseSweeps)
		return
	}
	s.smooth(tid, lv, smoothSweeps)
	s.restrictResidual(tid, l)
	s.vcycle(tid, l+1)
	s.prolongAdd(tid, l)
	s.smooth(tid, lv, smoothSweeps)
}

// smooth runs red-black Gauss-Seidel sweeps with a barrier per color.
func (s *Solver) smooth(tid int, lv Level, sweeps int) {
	lo, hi := core.BlockRange(tid, s.threads, lv.N)
	lo, hi = lo+1, hi+1
	h2 := lv.H * lv.H
	for sweep := 0; sweep < sweeps; sweep++ {
		for color := 0; color < 2; color++ {
			for i := lo; i < hi; i++ {
				row, frow := lv.U[i], lv.F[i]
				up, down := lv.U[i-1], lv.U[i+1]
				start := 1 + (i+1+color)%2
				for j := start; j <= lv.N; j += 2 {
					row[j] = (up[j] + down[j] + row[j-1] + row[j+1] - h2*frow[j]) / 4
				}
			}
			s.barrier.Wait()
		}
	}
}

// restrictResidual computes the fine residual and restricts it (full
// weighting) to the next-coarser F, zeroing the coarser U. Coarse row ci
// reads fine rows 2ci-1..2ci+1, and consecutive coarse rows share one fine
// row, so each fine residual the thread needs is computed once into its
// three rolling rows rather than once per stencil that reads it. Every
// coarse point still sums the same nine values in the same order. The
// stencil never reaches the boundary ring: fine rows and columns run from
// 2*1-1 = 1 to 2*coarse.N+1 = fine.N.
func (s *Solver) restrictResidual(tid, l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	lo, hi := core.BlockRange(tid, s.threads, coarse.N)
	if lo < hi {
		w := fine.N + 2
		buf := s.rows[tid]
		up, mid, down := buf[:w], buf[w:2*w], buf[2*w:3*w]
		residualRow(fine, 2*lo+1, up)
		for ci := lo + 1; ci <= hi; ci++ {
			fi := 2 * ci
			residualRow(fine, fi, mid)
			residualRow(fine, fi+1, down)
			for cj := 1; cj <= coarse.N; cj++ {
				fj := 2 * cj
				// Full-weighting stencil over the 3x3 fine neighborhood.
				v := 4*mid[fj] +
					2*(up[fj]+down[fj]+mid[fj-1]+mid[fj+1]) +
					up[fj-1] + up[fj+1] + down[fj-1] + down[fj+1]
				// The coarse operator uses the coarse mesh width; with
				// F_c = restricted residual the correction equation is
				// A_c e = r_c directly (restriction already scales by
				// the 1/16 weight; the h^2 factors live in smooth()).
				coarse.F[ci][cj] = v / 16
				coarse.U[ci][cj] = 0
			}
			// Fine row fi+1 is the next coarse row's fi-1.
			up, down = down, up
		}
	}
	s.barrier.Wait()
}

// residualRow writes the residual f - lap u of fine row i, columns
// 1..lv.N, into r.
func residualRow(lv Level, i int, r []float64) {
	h2 := lv.H * lv.H
	row, frow := lv.U[i], lv.F[i]
	up, down := lv.U[i-1], lv.U[i+1]
	for j := 1; j <= lv.N; j++ {
		r[j] = frow[j] - (up[j]+down[j]+row[j-1]+row[j+1]-4*row[j])/h2
	}
}

// prolongAdd interpolates the coarse correction bilinearly and adds it to
// the finer U.
func (s *Solver) prolongAdd(tid, l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	lo, hi := core.BlockRange(tid, s.threads, fine.N)
	cu := coarse.U
	for i := lo + 1; i <= hi; i++ {
		ci := i / 2
		di := i % 2 // 0: on a coarse row; 1: between coarse rows
		for j := 1; j <= fine.N; j++ {
			cj := j / 2
			dj := j % 2
			var corr float64
			switch {
			case di == 0 && dj == 0:
				corr = cu[ci][cj]
			case di == 0 && dj == 1:
				corr = (cu[ci][cj] + cu[ci][cj+1]) / 2
			case di == 1 && dj == 0:
				corr = (cu[ci][cj] + cu[ci+1][cj]) / 2
			default:
				corr = (cu[ci][cj] + cu[ci][cj+1] + cu[ci+1][cj] + cu[ci+1][cj+1]) / 4
			}
			fine.U[i][j] += corr
		}
	}
	s.barrier.Wait()
}

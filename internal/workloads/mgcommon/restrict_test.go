package mgcommon

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// refRestrictResidual is restrictResidual as it was before the rolling
// residual rows, kept verbatim as the oracle the kernel is held to.
func (s *Solver) refRestrictResidual(tid, l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	lo, hi := core.BlockRange(tid, s.threads, coarse.N)
	h2 := fine.H * fine.H
	res := func(i, j int) float64 {
		if i < 1 || j < 1 || i > fine.N || j > fine.N {
			return 0 // the boundary equation is an identity: zero residual
		}
		return fine.F[i][j] - (fine.U[i-1][j]+fine.U[i+1][j]+
			fine.U[i][j-1]+fine.U[i][j+1]-4*fine.U[i][j])/h2
	}
	for ci := lo + 1; ci <= hi; ci++ {
		fi := 2 * ci
		for cj := 1; cj <= coarse.N; cj++ {
			fj := 2 * cj
			// Full-weighting stencil over the 3x3 fine neighborhood.
			v := 4*res(fi, fj) +
				2*(res(fi-1, fj)+res(fi+1, fj)+res(fi, fj-1)+res(fi, fj+1)) +
				res(fi-1, fj-1) + res(fi-1, fj+1) + res(fi+1, fj-1) + res(fi+1, fj+1)
			// The coarse operator uses the coarse mesh width; with
			// F_c = restricted residual the correction equation is
			// A_c e = r_c directly (restriction already scales by
			// the 1/16 weight; the h^2 factors live in smooth()).
			coarse.F[ci][cj] = v / 16
			coarse.U[ci][cj] = 0
		}
	}
	s.barrier.Wait()
}

// refVcycle and refSolve are vcycle and Solve with the reference
// restriction; run on a one-thread solver they are the sequential oracle.
func (s *Solver) refVcycle(tid, l int) {
	lv := s.levels[l]
	if l == len(s.levels)-1 {
		s.smooth(tid, lv, coarseSweeps)
		return
	}
	s.smooth(tid, lv, smoothSweeps)
	s.refRestrictResidual(tid, l)
	s.refVcycle(tid, l+1)
	s.prolongAdd(tid, l)
	s.smooth(tid, lv, smoothSweeps)
}

func (s *Solver) refSolve(tid int) {
	for cyc := 0; cyc < s.maxCyc; cyc++ {
		s.refVcycle(tid, 0)
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

// globalRows is package ocean's layout: one allocation per level.
func globalRows(_, n int) [][]float64 {
	width := n + 2
	backing := make([]float64, width*width)
	rows := make([][]float64, width)
	for r := range rows {
		rows[r], backing = backing[:width:width], backing[width:]
	}
	return rows
}

// bandRows is package oceancont's layout: each thread's rows in their own
// allocation.
func bandRows(threads, n int) [][]float64 {
	width := n + 2
	rows := make([][]float64, width)
	rows[0] = make([]float64, width)
	rows[n+1] = make([]float64, width)
	for tid := 0; tid < threads; tid++ {
		lo, hi := core.BlockRange(tid, threads, n)
		band := make([]float64, (hi-lo)*width)
		for r := lo; r < hi; r++ {
			rows[r+1], band = band[:width:width], band[width:]
		}
	}
	return rows
}

// TestBitIdenticalToReference holds every level of every parallel solve,
// in both OCEAN layouts, bit for bit to the one-thread solve with the
// reference restriction, and requires the same cycle count. A rolling row
// left stale, a band edge off by one, or a thread's rows shared with another
// thread shows up as a differing bit. The OCEAN input does not depend on a
// seed, so the sizes are the programs' test, small and default grids.
func TestBitIdenticalToReference(t *testing.T) {
	for _, n := range []int{63, 127, 255} {
		if n == 255 && testing.Short() {
			continue
		}
		ref := NewSolver(n, 1, classic.New(), globalRows, FillSinRHS)
		ref.refSolve(0)
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			for _, threads := range []int{1, 2, 3, 7} {
				for _, layout := range []struct {
					name  string
					alloc Allocator
				}{{"ocean", globalRows}, {"ocean-contiguous", bandRows}} {
					got := NewSolver(n, threads, kit, layout.alloc, FillSinRHS)
					core.Parallel(threads, got.Solve)
					if got.Cycles() != ref.Cycles() {
						t.Fatalf("n %d, %s, %s, %d threads: %d cycles, reference %d", n, layout.name, kit.Name(), threads, got.Cycles(), ref.Cycles())
					}
					for l, lv := range ref.levels {
						for _, g := range []struct {
							name      string
							got, want [][]float64
						}{{"U", got.levels[l].U, lv.U}, {"F", got.levels[l].F, lv.F}} {
							for i := range g.want {
								for j, w := range g.want[i] {
									if v := g.got[i][j]; math.Float64bits(v) != math.Float64bits(w) {
										t.Fatalf("n %d, %s, %s, %d threads: level %d %s[%d][%d] is %v, reference %v", n, layout.name, kit.Name(), threads, l, g.name, i, j, v, w)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

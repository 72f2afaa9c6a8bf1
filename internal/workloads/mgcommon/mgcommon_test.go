package mgcommon_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/mgcommon"
	"repro/internal/workloads/ocean"
	"repro/internal/workloads/oceancont"
	"repro/internal/workloads/workloadtest"
)

// flatAlloc is the simple single-allocation layout used by tests.
func flatAlloc(_, n int) [][]float64 {
	width := n + 2
	backing := make([]float64, width*width)
	rows := make([][]float64, width)
	for r := range rows {
		rows[r], backing = backing[:width:width], backing[width:]
	}
	return rows
}

// TestBitIdenticalToReference holds both OCEAN layouts' solves bit for bit
// to their committed result digests under both kits at 1, 2, 3 and 7
// threads. A rolling row left stale, a band edge off by one, or a thread's
// rows shared with another thread shows up as a differing bit.
func TestBitIdenticalToReference(t *testing.T) {
	workloadtest.MatchesDigests(t, ocean.New(), 1, 2, 3, 7)
	workloadtest.MatchesDigests(t, oceancont.New(), 1, 2, 3, 7)
}

func TestSolveConvergesAndMatchesAnalytic(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		s := mgcommon.NewSolver(63, threads, lockfree.New(), flatAlloc, mgcommon.FillSinRHS)
		core.Parallel(threads, s.Solve)
		if !s.Converged() {
			t.Fatalf("threads=%d: no convergence in %d cycles", threads, s.Cycles())
		}
		if err := mgcommon.VerifyPoisson(s); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
	}
}

func TestCycleCountIsThreadIndependentAndFast(t *testing.T) {
	var want int
	for i, threads := range []int{1, 2, 7} {
		s := mgcommon.NewSolver(63, threads, classic.New(), flatAlloc, mgcommon.FillSinRHS)
		core.Parallel(threads, s.Solve)
		if i == 0 {
			want = s.Cycles()
			// Textbook multigrid converges in O(10) V-cycles
			// regardless of grid size; far more means the coarse
			// correction is broken even if the residual eventually
			// dips below tolerance.
			if want < 1 || want > 25 {
				t.Fatalf("implausible V-cycle count %d", want)
			}
			continue
		}
		if got := s.Cycles(); got != want {
			t.Fatalf("threads=%d: %d cycles, want %d", threads, got, want)
		}
	}
}

func TestCycleCountRoughlyGridIndependent(t *testing.T) {
	// The multigrid signature: cycles to converge barely grow with the
	// grid (unlike SOR's O(n) sweeps).
	cycles := func(n int) int {
		s := mgcommon.NewSolver(n, 4, lockfree.New(), flatAlloc, mgcommon.FillSinRHS)
		core.Parallel(4, s.Solve)
		if !s.Converged() {
			t.Fatalf("n=%d did not converge", n)
		}
		return s.Cycles()
	}
	c63, c127 := cycles(63), cycles(127)
	if c127 > 2*c63+2 {
		t.Fatalf("cycle count grew too fast with grid size: %d (n=63) -> %d (n=127)", c63, c127)
	}
}

func TestNewSolverRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 3, 8, 64, 100} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSolver accepted interior size %d", n)
				}
			}()
			mgcommon.NewSolver(n, 1, classic.New(), flatAlloc, mgcommon.FillSinRHS)
		}()
	}
}

func TestZeroRHSStaysZero(t *testing.T) {
	// With f = 0 and zero boundary, the exact solution is zero and the
	// solver must report convergence immediately after the first cycle.
	s := mgcommon.NewSolver(31, 2, classic.New(), flatAlloc,
		func(i, j int, h float64) float64 { return 0 })
	core.Parallel(2, s.Solve)
	if !s.Converged() || s.Cycles() != 1 {
		t.Fatalf("zero problem took %d cycles", s.Cycles())
	}
	fine := s.Fine()
	for i := 0; i <= fine.N+1; i++ {
		for j := 0; j <= fine.N+1; j++ {
			if fine.U[i][j] != 0 {
				t.Fatalf("u[%d][%d] = %g on the zero problem", i, j, fine.U[i][j])
			}
		}
	}
}

func TestGeneralRHS(t *testing.T) {
	// A different manufactured solution: u = x(1-x)y(1-y),
	// lap u = -2x(1-x) - 2y(1-y).
	fill := func(i, j int, h float64) float64 {
		x := float64(j) * h
		y := float64(i) * h
		return -2*x*(1-x) - 2*y*(1-y)
	}
	s := mgcommon.NewSolver(63, 5, lockfree.New(), flatAlloc, fill)
	core.Parallel(5, s.Solve)
	if !s.Converged() {
		t.Fatal("no convergence")
	}
	fine := s.Fine()
	h := fine.H
	var maxErr float64
	for i := 1; i <= fine.N; i++ {
		y := float64(i) * h
		for j := 1; j <= fine.N; j++ {
			x := float64(j) * h
			want := x * (1 - x) * y * (1 - y)
			if d := math.Abs(fine.U[i][j] - want); d > maxErr {
				maxErr = d
			}
		}
	}
	// This u is a polynomial the 5-point stencil resolves to O(h^2).
	if maxErr > 5*h*h {
		t.Fatalf("max error %g exceeds O(h^2) bound %g", maxErr, 5*h*h)
	}
}

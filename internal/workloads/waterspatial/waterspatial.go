// Package waterspatial implements the WATER-SPATIAL application: the same
// molecular dynamics as WATER-NSQUARED, but with a 3-D cell-list spatial
// decomposition so force computation touches only neighboring cells.
//
// Its synchronization signature differs from the O(n^2) version in one
// construct: the cell lists are rebuilt every step by concurrent insertion,
// guarded by a per-cell lock (Splash-3 LOCK macros on each box; Splash-4
// turns the list push into an atomic exchange — here both come from the
// kit, a mutex or a spinlock). The step loop, the per-molecule force merge,
// the global energy/momentum reductions, Run and Verify are package
// mdcommon's, shared with WATER-NSQUARED; this package is the cell-list
// force phase.
//
// Scale mapping (molecules/steps): test 64/3, small 216/3, default 512/3,
// large 1728/5.
package waterspatial

import (
	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/workloads/mdcommon"
)

// Benchmark is the WATER-SPATIAL descriptor.
type Benchmark struct{}

// New returns the WATER-SPATIAL benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "water-spatial" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "cell-list molecular dynamics with per-cell insertion locks (app)"
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	return mdcommon.Prepare(cfg, "waterspatial", 1728, newCells)
}

// cells is the cell-list force phase: m^3 cells at least the cutoff wide,
// their lists, rebuilt every step, and their insertion locks.
type cells struct {
	sys      *mdcommon.System
	m        int // cells per dimension
	cellSize float64
	head     []int32 // cell -> first molecule, -1 when empty
	next     []int32 // molecule -> next in its cell
	nbr      [][]int32
	cellLock []sync4.Locker
}

// newCells builds the force phase for s, one insertion lock per cell from
// kit.
func newCells(s *mdcommon.System, kit sync4.Kit) mdcommon.ForcePhase {
	m := max(int(s.Box/s.Rc), 1)
	cs := &cells{
		sys:      s,
		m:        m,
		cellSize: s.Box / float64(m),
		head:     make([]int32, m*m*m),
		next:     make([]int32, s.N),
		cellLock: make([]sync4.Locker, m*m*m),
	}
	for i := range cs.cellLock {
		cs.cellLock[i] = kit.NewLock()
	}
	cs.buildNeighborLists()
	return cs.forces
}

// buildNeighborLists precomputes, for every cell, the distinct neighbor cell
// ids greater than its own id. Visiting (cell, neighbor>cell) pairs plus
// intra-cell pairs covers every interacting pair exactly once, even when the
// periodic wrap makes several of the 26 lattice neighbors coincide (small
// m). Cell ids above the own id keep the ordering canonical.
func (cs *cells) buildNeighborLists() {
	m := cs.m
	cs.nbr = make([][]int32, len(cs.head))
	id := func(a, b, c int) int32 {
		a = ((a % m) + m) % m
		b = ((b % m) + m) % m
		c = ((c % m) + m) % m
		return int32((a*m+b)*m + c)
	}
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			for c := 0; c < m; c++ {
				own := id(a, b, c)
				seen := map[int32]bool{own: true}
				var list []int32
				for da := -1; da <= 1; da++ {
					for db := -1; db <= 1; db++ {
						for dc := -1; dc <= 1; dc++ {
							t := id(a+da, b+db, c+dc)
							if t > own && !seen[t] {
								seen[t] = true
								list = append(list, t)
							}
						}
					}
				}
				cs.nbr[own] = list
			}
		}
	}
}

// cellOf maps molecule i's position in x to its cell id.
func (cs *cells) cellOf(x []float64, i int) int32 {
	cx := min(int(x[3*i]/cs.cellSize), cs.m-1)
	cy := min(int(x[3*i+1]/cs.cellSize), cs.m-1)
	cz := min(int(x[3*i+2]/cs.cellSize), cs.m-1)
	return int32((cx*cs.m+cy)*cs.m + cz)
}

// forces rebuilds the cell lists, then visits the pairs of the cells
// thread tid owns: intra-cell pairs plus pairs with each greater-id
// neighbor cell.
func (cs *cells) forces(tid int, priv []float64) float64 {
	s := cs.sys
	x, n, box, rc, vShift := s.X, s.N, s.Box, s.Rc, s.VShift
	head, next := cs.head, cs.next
	molLo, molHi := core.BlockRange(tid, s.Threads, n)
	cellLo, cellHi := core.BlockRange(tid, s.Threads, len(head))

	// Owners clear their cells, then each thread pushes its molecules
	// under the destination cell's lock.
	for c := cellLo; c < cellHi; c++ {
		head[c] = -1
	}
	s.Barrier.Wait()
	for i := molLo; i < molHi; i++ {
		c := cs.cellOf(x, i)
		l := cs.cellLock[c]
		l.Lock()
		next[i] = head[c]
		head[c] = int32(i)
		l.Unlock()
	}
	s.Barrier.Wait()

	var pe float64
	for c := cellLo; c < cellHi; c++ {
		for i := head[c]; i >= 0; i = next[i] {
			for j := next[i]; j >= 0; j = next[j] {
				pe += mdcommon.PairInteraction(x, priv, int(i), int(j), box, rc, vShift)
			}
		}
		for _, c2 := range cs.nbr[c] {
			for i := head[c]; i >= 0; i = next[i] {
				for j := head[c2]; j >= 0; j = next[j] {
					pe += mdcommon.PairInteraction(x, priv, int(i), int(j), box, rc, vShift)
				}
			}
		}
	}
	return pe
}

// Package mdcommon holds the molecular-dynamics physics shared by the two
// WATER applications: shifted Lennard-Jones pair interactions in reduced
// units, periodic boundary helpers, lattice/velocity initialization, and the
// sequential force oracle both workloads verify against.
//
// RowForces, WATER-NSQUARED's inner loop, is PairInteraction over a row with
// the loop invariants hoisted and molecule i kept in registers; it performs
// the same additions in the same order, so its forces and energy are the
// same bits.
package mdcommon

import (
	"math"
	"math/rand"
)

// Density is the reduced number density used by both WATER workloads.
const Density = 0.8

// Dt is the reduced integration time step.
const Dt = 0.004

// Box returns the periodic box edge for n molecules at the suite density.
func Box(n int) float64 { return math.Cbrt(float64(n) / Density) }

// Cutoff returns the interaction cutoff for a given box: the usual 2.5 sigma
// capped at half the box so the minimum-image convention stays valid.
func Cutoff(box float64) float64 { return math.Min(2.5, box/2) }

// VShift returns the potential value at the cutoff; subtracting it makes the
// potential continuous there (shifted-potential LJ).
func VShift(rc float64) float64 {
	rc2 := rc * rc
	sr6 := 1 / (rc2 * rc2 * rc2)
	return 4 * sr6 * (sr6 - 1)
}

// Wrap applies periodic boundary conditions to one coordinate.
func Wrap(x, box float64) float64 {
	if x >= box {
		return x - box
	}
	if x < 0 {
		return x + box
	}
	return x
}

// MinImage returns the minimum-image displacement component.
func MinImage(d, box float64) float64 { return minImage(d, box, box/2) }

// PairInteraction computes the shifted-LJ interaction between molecules i
// and j at positions x, adding the force pair into f (which may be a
// thread-private array), and returns the pair's potential energy
// contribution. It is a no-op returning 0 beyond the cutoff.
func PairInteraction(x, f []float64, i, j int, box, rc, vShift float64) float64 {
	dx := MinImage(x[3*i]-x[3*j], box)
	dy := MinImage(x[3*i+1]-x[3*j+1], box)
	dz := MinImage(x[3*i+2]-x[3*j+2], box)
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= rc*rc || r2 == 0 {
		return 0
	}
	inv2 := 1 / r2
	sr6 := inv2 * inv2 * inv2
	fmag := 24 * sr6 * (2*sr6 - 1) * inv2
	f[3*i] += fmag * dx
	f[3*i+1] += fmag * dy
	f[3*i+2] += fmag * dz
	f[3*j] -= fmag * dx
	f[3*j+1] -= fmag * dy
	f[3*j+2] -= fmag * dz
	return 4*sr6*(sr6-1) - vShift
}

// RowForces accumulates molecule i's interactions with all j > i into f and
// returns the potential energy of those pairs. It is PairInteraction for
// j = i+1..n-1 in order with box/2 and rc*rc hoisted and molecule i's
// position and force kept in registers: f and the energy get the same
// additions in the same order, so the result is the same bits. (A pair
// beyond the cutoff adds nothing rather than +0; the sum starts at +0 and
// so is never -0, where the two would differ.)
func RowForces(x, f []float64, i, n int, box, rc, vShift float64) float64 {
	half, rc2 := box/2, rc*rc
	xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
	fx, fy, fz := f[3*i], f[3*i+1], f[3*i+2]
	var pe float64
	for j := i + 1; j < n; j++ {
		xj := x[3*j : 3*j+3]
		dx := minImage(xi-xj[0], box, half)
		dy := minImage(yi-xj[1], box, half)
		dz := minImage(zi-xj[2], box, half)
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= rc2 || r2 == 0 {
			continue
		}
		inv2 := 1 / r2
		sr6 := inv2 * inv2 * inv2
		fmag := 24 * sr6 * (2*sr6 - 1) * inv2
		fx += fmag * dx
		fy += fmag * dy
		fz += fmag * dz
		fj := f[3*j : 3*j+3]
		fj[0] -= fmag * dx
		fj[1] -= fmag * dy
		fj[2] -= fmag * dz
		pe += 4*sr6*(sr6-1) - vShift
	}
	f[3*i], f[3*i+1], f[3*i+2] = fx, fy, fz
	return pe
}

// minImage is MinImage with box/2 precomputed.
func minImage(d, box, half float64) float64 {
	if d > half {
		return d - box
	}
	if d < -half {
		return d + box
	}
	return d
}

// ComputeForces fills f with the total force on each molecule (sequential
// all-pairs oracle).
func ComputeForces(x, f []float64, n int, box, rc float64) {
	for i := range f {
		f[i] = 0
	}
	for i := 0; i < n; i++ {
		RowForces(x, f, i, n, box, rc, 0)
	}
}

// Potential returns the total shifted-LJ potential energy at positions x
// (sequential all-pairs oracle).
func Potential(x []float64, n int, box, rc, vShift float64) float64 {
	scratch := make([]float64, 3*n)
	var pe float64
	for i := 0; i < n; i++ {
		pe += RowForces(x, scratch, i, n, box, rc, vShift)
	}
	return pe
}

// InitState places n molecules on a jittered cubic lattice inside box and
// draws zero-net-momentum Maxwellian velocities, writing into x and v
// (each 3n long).
func InitState(x, v []float64, n int, box float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := int(math.Ceil(math.Cbrt(float64(n))))
	cell := box / float64(m)
	idx := 0
	for a := 0; a < m && idx < n; a++ {
		for b := 0; b < m && idx < n; b++ {
			for c := 0; c < m && idx < n; c++ {
				x[3*idx+0] = (float64(a) + 0.5 + 0.1*(rng.Float64()-0.5)) * cell
				x[3*idx+1] = (float64(b) + 0.5 + 0.1*(rng.Float64()-0.5)) * cell
				x[3*idx+2] = (float64(c) + 0.5 + 0.1*(rng.Float64()-0.5)) * cell
				idx++
			}
		}
	}
	var p [3]float64
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			v[3*i+d] = rng.NormFloat64()
			p[d] += v[3*i+d]
		}
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			v[3*i+d] -= p[d] / float64(n)
		}
	}
}

package mdcommon

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/sync4"
)

// sizes maps a scale to molecules and steps, with large molecules at large
// scale.
func sizes(s core.Scale, large int) (n, steps int) {
	switch s {
	case core.ScaleTest:
		return 64, 3
	case core.ScaleSmall:
		return 216, 3
	case core.ScaleLarge:
		return large, 5
	default:
		return 512, 3
	}
}

// ForcePhase computes thread tid's share of one step's forces at the
// system's current positions. It adds the forces into priv, which it finds
// zeroed, and returns the potential energy of the pairs it visited. Every
// thread calls it once per step, between the drift and the merge; it may
// wait on the system's barrier, which every thread then does alike.
type ForcePhase func(tid int, priv []float64) float64

// System is what a force phase reads of a WATER run.
type System struct {
	Threads int
	N       int // molecules
	Box     float64
	Rc      float64   // interaction cutoff
	VShift  float64   // potential at the cutoff
	X       []float64 // 3n positions, written only in the drift
	Barrier sync4.Barrier
}

// instance is one WATER run; it implements core.Instance and
// core.ResultWriter.
type instance struct {
	System
	name   string // error prefix
	steps  int
	forces ForcePhase

	v     []float64   // 3n velocities
	force []float64   // 3n merged forces for the current positions
	priv  [][]float64 // per thread: 3n private force contributions

	fAcc  []sync4.Accumulator // 3n shared force cells (the contended merge)
	peAcc []sync4.Accumulator // per-step potential energy
	keAcc []sync4.Accumulator // per-step kinetic energy
	pAcc  []sync4.Accumulator // per-step 3-component momentum

	pe0, ke0 float64 // initial energies for the conservation check
	ran      bool
}

// Prepare builds the system of cfg's scale, with large molecules at large
// scale, and the force phase newForces makes for it from kit; name
// prefixes its errors.
func Prepare(cfg core.Config, name string, large int, newForces func(*System, sync4.Kit) ForcePhase) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, steps := sizes(cfg.Scale, large)
	if cfg.Threads > n {
		return nil, fmt.Errorf("%s: threads (%d) exceed molecules (%d)", name, cfg.Threads, n)
	}
	box := Box(n)
	rc := Cutoff(box)
	in := &instance{
		System: System{
			Threads: cfg.Threads,
			N:       n,
			Box:     box,
			Rc:      rc,
			VShift:  VShift(rc),
			X:       make([]float64, 3*n),
			Barrier: cfg.Kit.NewBarrier(cfg.Threads),
		},
		name:  name,
		steps: steps,
		v:     make([]float64, 3*n),
		force: make([]float64, 3*n),
		priv:  make([][]float64, cfg.Threads),
		fAcc:  make([]sync4.Accumulator, 3*n),
		peAcc: make([]sync4.Accumulator, steps),
		keAcc: make([]sync4.Accumulator, steps),
		pAcc:  make([]sync4.Accumulator, 3*steps),
	}
	in.forces = newForces(&in.System, cfg.Kit)
	for t := range in.priv {
		in.priv[t] = make([]float64, 3*n)
	}
	for i := range in.fAcc {
		in.fAcc[i] = cfg.Kit.NewAccumulator()
	}
	for st := 0; st < steps; st++ {
		in.peAcc[st] = cfg.Kit.NewAccumulator()
		in.keAcc[st] = cfg.Kit.NewAccumulator()
		for d := 0; d < 3; d++ {
			in.pAcc[3*st+d] = cfg.Kit.NewAccumulator()
		}
	}

	InitState(in.X, in.v, n, box, cfg.Seed)
	in.pe0 = Potential(in.X, n, box, rc, in.VShift)
	ComputeForces(in.X, in.force, n, box, rc)
	for i := 0; i < 3*n; i++ {
		in.ke0 += 0.5 * in.v[i] * in.v[i]
	}
	return in, nil
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("%s: instance reused", in.name)
	}
	in.ran = true
	core.Parallel(in.Threads, in.worker)
	return nil
}

// worker runs the velocity-Verlet steps for thread tid, which owns a block
// of molecules.
func (in *instance) worker(tid int) {
	n := in.N
	lo, hi := core.BlockRange(tid, in.Threads, n)
	priv := in.priv[tid]
	dt := Dt

	for st := 0; st < in.steps; st++ {
		// Half-kick and drift for owned molecules.
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				in.v[3*i+d] += 0.5 * dt * in.force[3*i+d]
				in.X[3*i+d] = Wrap(in.X[3*i+d]+dt*in.v[3*i+d], in.Box)
			}
		}
		in.Barrier.Wait()

		// The program's forces, into the thread-private array.
		for i := range priv {
			priv[i] = 0
		}
		in.peAcc[st].Add(in.forces(tid, priv))

		// The merge: fold private contributions into the shared
		// per-molecule cells. This is the construct the paper
		// rewrites: LOCK(mol[i]) ... UNLOCK in Splash-3, atomic CAS
		// accumulation in Splash-4.
		for i := 0; i < 3*n; i++ {
			if priv[i] != 0 {
				in.fAcc[i].Add(priv[i])
			}
		}
		in.Barrier.Wait()

		// Publish merged forces for owned molecules and reset the
		// cells for the next step (safe: only the owner touches them
		// between barriers).
		for i := 3 * lo; i < 3*hi; i++ {
			in.force[i] = in.fAcc[i].Load()
			in.fAcc[i].Store(0)
		}
		// Second half-kick plus kinetic-energy and momentum
		// reductions.
		var ke float64
		var p [3]float64
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				in.v[3*i+d] += 0.5 * dt * in.force[3*i+d]
				ke += 0.5 * in.v[3*i+d] * in.v[3*i+d]
				p[d] += in.v[3*i+d]
			}
		}
		in.keAcc[st].Add(ke)
		for d := 0; d < 3; d++ {
			in.pAcc[3*st+d].Add(p[d])
		}
		in.Barrier.Wait()
	}
}

// Verify implements core.Instance: momentum conservation, energy
// conservation, agreement of the reduced potential energy with a sequential
// recomputation, and agreement of the merged forces with the sequential
// all-pairs oracle at the final positions.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("%s: verify before run", in.name)
	}
	last := in.steps - 1

	for d := 0; d < 3; d++ {
		if p := in.pAcc[3*last+d].Load(); math.Abs(p) > 1e-7*float64(in.N) {
			return fmt.Errorf("%s: momentum[%d] drifted to %g", in.name, d, p)
		}
	}

	e0 := in.pe0 + in.ke0
	e1 := in.peAcc[last].Load() + in.keAcc[last].Load()
	if drift := math.Abs(e1-e0) / math.Max(math.Abs(e0), 1); drift > 0.05 {
		return fmt.Errorf("%s: energy drift %.3f%% (E0=%g, E1=%g)", in.name, drift*100, e0, e1)
	}

	peWant := Potential(in.X, in.N, in.Box, in.Rc, in.VShift)
	peGot := in.peAcc[last].Load()
	if math.Abs(peGot-peWant) > 1e-6*math.Max(math.Abs(peWant), 1) {
		return fmt.Errorf("%s: reduced PE %g != recomputed %g", in.name, peGot, peWant)
	}

	want := make([]float64, 3*in.N)
	ComputeForces(in.X, want, in.N, in.Box, in.Rc)
	for i := range want {
		if d := math.Abs(in.force[i] - want[i]); d > 1e-7*math.Max(math.Abs(want[i]), 1) {
			return fmt.Errorf("%s: force[%d] = %g, oracle %g", in.name, i, in.force[i], want[i])
		}
	}
	return nil
}

// WriteResult implements core.ResultWriter: positions, velocities and
// merged forces, then each step's potential energy, kinetic energy and
// momentum.
func (in *instance) WriteResult(w io.Writer) error {
	for _, f := range [][]float64{in.X, in.v, in.force} {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	for st := 0; st < in.steps; st++ {
		sums := []float64{in.peAcc[st].Load(), in.keAcc[st].Load(), in.pAcc[3*st].Load(), in.pAcc[3*st+1].Load(), in.pAcc[3*st+2].Load()}
		if err := binary.Write(w, binary.LittleEndian, sums); err != nil {
			return err
		}
	}
	return nil
}

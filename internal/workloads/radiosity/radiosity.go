// Package radiosity implements the RADIOSITY application as progressive-
// refinement radiosity over a Cornell-box-style patch mesh: each iteration
// selects the patch with the most unshot power, distributes its energy to
// every other patch through disc-to-point form factors, and repeats until
// the unshot power drops below a threshold.
//
// Fidelity note (see DESIGN.md): the original is hierarchical radiosity with
// adaptive subdivision and a bespoke per-processor task system; progressive
// refinement keeps the part that dominates its synchronization — a shared
// work pile of receiver tasks drained every iteration (kit Stack: single
// lock in Splash-3, Treiber stack in Splash-4), a global argmax reduction
// for shooter selection (MinMax + a selection lock), a global power
// accumulator, and several barriers per iteration.
//
// The computation is deterministic: every receiver is updated by exactly one
// thread per iteration with a value independent of thread identity, and the
// shooter choice ties break by lowest patch id. Verification therefore
// replays the whole algorithm sequentially and demands exact equality.
//
// Scale mapping (patches): test 486, small 1350, default 2904, large 6144 —
// five walls plus an emissive ceiling section, each wall subdivided g x g
// with g = 9, 15, 22, 32.
package radiosity

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	iterCapLimit = 600  // upper bound on shooting iterations at any scale
	chunk        = 64   // receiver patches per stack task
	powerEps     = 1e-3 // early exit when max unshot power falls below this
	lightEmit    = 10.0
)

// Benchmark is the RADIOSITY descriptor.
type Benchmark struct{}

// New returns the RADIOSITY benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "radiosity" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "progressive-refinement radiosity with shared task pile (app)"
}

func grid(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 9
	case core.ScaleSmall:
		return 15
	case core.ScaleDefault:
		return 22
	case core.ScaleLarge:
		return 32
	default:
		return 22
	}
}

// patch is one mesh element (gray radiosity: scalar quantities).
type patch struct {
	cx, cy, cz float64 // center
	nx, ny, nz float64 // unit normal (pointing into the box)
	area       float64
	rho        float64 // reflectance
	emit       float64 // emission
}

type instance struct {
	threads int
	patches []patch
	iterCap int // shooting iterations unless the power threshold hits first

	b      []float64 // radiosity
	unshot []float64 // unshot radiosity

	barrier  sync4.Barrier
	maxPower []sync4.MinMax      // per-iteration argmax reduction
	shotAcc  []sync4.Accumulator // per-iteration distributed power (stats)
	selLock  sync4.Locker
	pile     sync4.Stack

	shooter    int // selected under selLock between barriers
	iterations int
	converged  bool
	ran        bool
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := grid(cfg.Scale)
	patches := buildBox(g)
	if cfg.Threads > len(patches) {
		return nil, fmt.Errorf("radiosity: threads (%d) exceed patches (%d)", cfg.Threads, len(patches))
	}
	iterCap := len(patches)
	if iterCap > iterCapLimit {
		iterCap = iterCapLimit
	}
	in := &instance{
		threads:  cfg.Threads,
		patches:  patches,
		iterCap:  iterCap,
		b:        make([]float64, len(patches)),
		unshot:   make([]float64, len(patches)),
		barrier:  cfg.Kit.NewBarrier(cfg.Threads),
		maxPower: make([]sync4.MinMax, iterCap),
		shotAcc:  make([]sync4.Accumulator, iterCap),
		selLock:  cfg.Kit.NewLock(),
		pile:     cfg.Kit.NewStack(),
		shooter:  -1,
	}
	for i := range in.maxPower {
		in.maxPower[i] = cfg.Kit.NewMinMax()
		in.shotAcc[i] = cfg.Kit.NewAccumulator()
	}
	for i, p := range patches {
		in.b[i] = p.emit
		in.unshot[i] = p.emit
	}
	return in, nil
}

// buildBox meshes a unit Cornell box: floor, ceiling (with an emissive
// central section), back wall and two side walls, each g x g patches.
func buildBox(g int) []patch {
	var ps []patch
	step := 1.0 / float64(g)
	area := step * step
	add := func(cx, cy, cz, nx, ny, nz, rho, emit float64) {
		ps = append(ps, patch{cx, cy, cz, nx, ny, nz, area, rho, emit})
	}
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			u := (float64(i) + 0.5) * step
			w := (float64(j) + 0.5) * step
			// Floor (y=0, normal up), gray.
			add(u, 0, w, 0, 1, 0, 0.7, 0)
			// Ceiling (y=1, normal down): central ninth emits.
			emit := 0.0
			if u > 1.0/3 && u < 2.0/3 && w > 1.0/3 && w < 2.0/3 {
				emit = lightEmit
			}
			add(u, 1, w, 0, -1, 0, 0.75, emit)
			// Back wall (z=1, normal -z), white-ish.
			add(u, w, 1, 0, 0, -1, 0.75, 0)
			// Left wall (x=0, normal +x), red-ish reflectance.
			add(0, u, w, 1, 0, 0, 0.6, 0)
			// Right wall (x=1, normal -x), green-ish reflectance.
			add(1, u, w, -1, 0, 0, 0.6, 0)
		}
	}
	return ps
}

// formFactor returns the disc-to-point form factor between patches i and j.
// Visibility is not tested: the box is convex with no occluders, so every
// patch pair that faces each other is mutually visible.
func formFactor(pi, pj *patch) float64 {
	dx := pj.cx - pi.cx
	dy := pj.cy - pi.cy
	dz := pj.cz - pi.cz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0
	}
	r := math.Sqrt(r2)
	cosI := (pi.nx*dx + pi.ny*dy + pi.nz*dz) / r
	cosJ := -(pj.nx*dx + pj.ny*dy + pj.nz*dz) / r
	if cosI <= 0 || cosJ <= 0 {
		return 0
	}
	return cosI * cosJ * pj.area / (math.Pi*r2 + pj.area)
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("radiosity: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	n := len(in.patches)
	lo, hi := core.BlockRange(tid, in.threads, n)
	prevShooter := -1

	for it := 0; it < in.iterCap; it++ {
		// Phase A: retire the previous shooter and clear the slot.
		if tid == 0 {
			if prevShooter >= 0 {
				in.unshot[prevShooter] = 0
			}
			in.shooter = -1
		}
		in.barrier.Wait()

		// Phase B: argmax reduction over unshot power.
		var localMax float64
		localIdx := -1
		for i := lo; i < hi; i++ {
			if i == prevShooter {
				continue // its unshot was just zeroed
			}
			if p := in.unshot[i] * in.patches[i].area; p > localMax {
				localMax = p
				localIdx = i
			}
		}
		if localIdx >= 0 {
			in.maxPower[it].Update(localMax)
		}
		in.barrier.Wait()

		// Phase C: convergence test and shooter selection; thread 0
		// loads the work pile for the shooting phase.
		globalMax := in.maxPower[it].Max()
		if globalMax < powerEps || math.IsInf(globalMax, -1) {
			if tid == 0 {
				in.iterations = it
				in.converged = true
			}
			return
		}
		if localIdx >= 0 && localMax == globalMax {
			in.selLock.Lock()
			if in.shooter < 0 || localIdx < in.shooter {
				in.shooter = localIdx
			}
			in.selLock.Unlock()
		}
		if tid == 0 {
			for start := 0; start < n; start += chunk {
				in.pile.Push(int64(start))
			}
		}
		in.barrier.Wait()

		// Phase D: drain the pile; each task updates one receiver
		// chunk from the shooter.
		shooter := in.shooter
		ps := &in.patches[shooter]
		shootB := in.unshot[shooter]
		var shot float64
		for {
			start, ok := in.pile.TryPop()
			if !ok {
				break
			}
			end := int(start) + chunk
			if end > n {
				end = n
			}
			for j := int(start); j < end; j++ {
				if j == shooter {
					continue
				}
				ff := formFactor(ps, &in.patches[j])
				if ff == 0 {
					continue
				}
				db := in.patches[j].rho * shootB * ff * ps.area / in.patches[j].area
				in.b[j] += db
				in.unshot[j] += db
				shot += db * in.patches[j].area
			}
		}
		in.shotAcc[it].Add(shot)
		in.barrier.Wait()

		prevShooter = shooter
	}
	if tid == 0 {
		in.iterations = in.iterCap
		in.converged = true
	}
}

// WriteResult implements core.ResultWriter: the radiosity and unshot
// vectors, then the iteration count.
func (in *instance) WriteResult(w io.Writer) error {
	for _, v := range [][]float64{in.b, in.unshot} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, float64(in.iterations))
}

// Verify implements core.Instance: an independent sequential replay of the
// algorithm must produce exactly the same radiosity vector and iteration
// count, and physical invariants must hold (non-negative, finite, total
// power bounded by the emitted power amplified by reflection).
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("radiosity: verify before run")
	}
	n := len(in.patches)
	b := make([]float64, n)
	unshot := make([]float64, n)
	var emitted float64
	maxRho := 0.0
	for i, p := range in.patches {
		b[i] = p.emit
		unshot[i] = p.emit
		emitted += p.emit * p.area
		if p.rho > maxRho {
			maxRho = p.rho
		}
	}
	iters := in.iterCap
	for it := 0; it < in.iterCap; it++ {
		shooter := -1
		best := 0.0
		for i := range b {
			if p := unshot[i] * in.patches[i].area; p > best {
				best = p
				shooter = i
			}
		}
		if shooter < 0 || best < powerEps {
			iters = it
			break
		}
		ps := &in.patches[shooter]
		shootB := unshot[shooter]
		for j := 0; j < n; j++ {
			if j == shooter {
				continue
			}
			ff := formFactor(ps, &in.patches[j])
			if ff == 0 {
				continue
			}
			db := in.patches[j].rho * shootB * ff * ps.area / in.patches[j].area
			b[j] += db
			unshot[j] += db
		}
		unshot[shooter] = 0
	}

	if iters != in.iterations {
		return fmt.Errorf("radiosity: parallel run took %d iterations, sequential oracle %d", in.iterations, iters)
	}
	var total float64
	for i := range b {
		if in.b[i] != b[i] {
			return fmt.Errorf("radiosity: patch %d radiosity %g, oracle %g", i, in.b[i], b[i])
		}
		if in.b[i] < 0 || math.IsNaN(in.b[i]) || math.IsInf(in.b[i], 0) {
			return fmt.Errorf("radiosity: patch %d has invalid radiosity %g", i, in.b[i])
		}
		total += in.b[i] * in.patches[i].area
	}
	if limit := emitted / (1 - maxRho); total > limit {
		return fmt.Errorf("radiosity: total power %g exceeds physical bound %g", total, limit)
	}
	return nil
}

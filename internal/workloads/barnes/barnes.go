// Package barnes implements the BARNES application: Barnes-Hut hierarchical
// N-body simulation. Each timestep bounds the bodies with a global min/max
// reduction, builds a shared octree by concurrent insertion under pooled cell
// locks, computes centers of mass bottom-up, evaluates forces with the
// opening-angle criterion, and integrates with leapfrog.
//
// The synchronization constructs mirror the original: the bounding box is a
// reduction (lock-protected extremes in Splash-3, CAS min/max in Splash-4),
// tree nodes are allocated from a shared arena through a counter (lock+int
// vs fetch-and-add — one of the paper's headline rewrites), insertion locks
// are a pool of 2048 kit locks that cells hash onto by arena index (SPLASH-2's
// CellLock[MAXLOCK]), and force-phase bodies are claimed in chunks from
// another shared counter. A chunk is a range of tree-order ranks, so
// consecutive walks start from neighbouring bodies, as in SPLASH-2's
// costzones order.
//
// The force phase walks no tree and keeps no stack. The center-of-mass
// phase lays the tree out as an array in the order a depth-first walk
// visits it (pre-order, children 7 to 0): each entry holds a cell's mass,
// center, squared width, leaf body and the index after its subtree, so a
// walk that accepts a cell jumps there and one that opens it reads on. The
// threads lay out the subtrees two levels down in parallel, each at the
// place given by the nodes the build counted into the subtrees before it.
// Thread 0's serial share, placing the subtrees and folding and laying out
// the top two levels, took 8-12 µs per step at default scale on a 2-CPU
// host: under 0.05 % of the region.
//
// Memory: the arena holds 4n nodes of 72 bytes each (4.5 MiB at default
// scale). A step's tree takes 1.48n-1.54n of them at every scale over seeds
// 1, 7, 77 and 12345, and alloc panics if a tree ever outgrows the arena.
// The walk array has one 48-byte entry per arena node, 4n of them (3 MiB
// at default scale); a step uses one per tree node, 24 305 at default scale
// with seed 1. Prepare allocates both. The lock pool is fixed at 2048 kit
// locks whatever the scale.
//
// Scale mapping (bodies/steps): test 512/2, small 4096/2, default 16384/2
// (16K bodies is the Splash default input), large 65536/3.
package barnes

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	theta      = 0.7  // opening angle
	eps        = 0.05 // gravitational softening
	dt         = 0.025
	forceChunk = 16   // bodies claimed per counter fetch in the force phase
	maxLock    = 2048 // insertion lock pool size (SPLASH-2's MAXLOCK); a power of two

	// comTol bounds Verify's root center-of-mass error, in box sizes. The
	// tree's sum and the direct one differ only in rounding order: the
	// direct sum's worst case, n·ε, stays below 1e-11 at every scale, and
	// the measured error is below 1e-16.
	comTol = 1e-9
)

// Benchmark is the BARNES descriptor.
type Benchmark struct{}

// New returns the BARNES benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "barnes" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "Barnes-Hut octree N-body with locked parallel tree build (app)"
}

func params(s core.Scale) (n, steps int) {
	switch s {
	case core.ScaleTest:
		return 512, 2
	case core.ScaleSmall:
		return 4096, 2
	case core.ScaleDefault:
		return 16384, 2
	case core.ScaleLarge:
		return 65536, 3
	default:
		return 16384, 2
	}
}

// node is one octree cell. kind is immutable after construction: a leaf
// holds exactly one body; an internal node holds eight child slots. Child
// slots are only read or written while holding the node's pool lock,
// locks[idx&(maxLock-1)], during the build phase; after the build barrier
// the tree is immutable and read lock-free.
type node struct {
	children [8]int32 // -1 = empty
	body     int32    // leaf: body index; internal: -1
	// Center-of-mass phase results:
	count      int32 // bodies in the subtree
	mass       float64
	cx, cy, cz float64
}

// cell is one entry of the force phase's walk: a folded tree node, laid out
// in the order gravity visits the tree, pre-order with children 7 to 0. A
// walk that accepts the node goes on at skip, the entry after its subtree;
// one that opens it goes on at the next entry, its first child.
type cell struct {
	cx, cy, cz float64
	mass       float64
	w2         float64 // the cell's width squared
	body       int32   // leaf: body index; internal: -1
	skip       int32
}

// comTask is one subtree of the COM phase: the child of a child of the
// root at arena index root, whose walk entries are walk[at:end].
type comTask struct{ root, at, end int32 }

type instance struct {
	threads int
	n       int
	steps   int

	x, v, acc []float64 // 3n each
	mass      []float64

	arena    []node
	arenaCtr sync4.Counter // next free arena slot (headline atomic in Splash-4)
	root     int32
	locks    [maxLock]sync4.Locker // cell idx is guarded by locks[idx&(maxLock-1)]

	minX, minY, minZ sync4.MinMax    // bounding-box reductions (3 used for clarity)
	forceCtr         []sync4.Counter // per-step force-task counters
	comCtr           []sync4.Counter // per-step center-of-mass task counters
	rootReady        []sync4.Flag    // per-step "tree rooted" signal (SETPAUSE)
	keAcc            []sync4.Accumulator
	pAcc             []sync4.Accumulator

	barrier sync4.Barrier

	// Per-step shared scalars published by thread 0 between barriers.
	boxMin, boxSize float64

	// walk is the step's tree laid out for the force phase: walk[0] is the
	// root, and walk[0].skip entries are in use. It has an entry for every
	// arena node.
	walk []cell

	// subtreeNodes[tid][8*o0+o1] counts the nodes thread tid added during
	// the step's build to the subtree of the root's child o0's child o1.
	subtreeNodes [][64]int32

	// comTasks lists the subtrees distributed during the COM phase, at
	// most 8 per child of the root; rebuilt each step by thread 0 between
	// barriers.
	comTasks []comTask

	ran bool
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, steps := params(cfg.Scale)
	if cfg.Threads > n {
		return nil, fmt.Errorf("barnes: threads (%d) exceed bodies (%d)", cfg.Threads, n)
	}
	in := &instance{
		threads:  cfg.Threads,
		n:        n,
		steps:    steps,
		x:        make([]float64, 3*n),
		v:        make([]float64, 3*n),
		acc:      make([]float64, 3*n),
		mass:     make([]float64, n),
		arena:    make([]node, 4*n),
		walk:     make([]cell, 4*n),
		comTasks: make([]comTask, 0, 64),
		arenaCtr: cfg.Kit.NewCounter(),
		minX:     cfg.Kit.NewMinMax(),
		minY:     cfg.Kit.NewMinMax(),
		minZ:     cfg.Kit.NewMinMax(),
		barrier:  cfg.Kit.NewBarrier(cfg.Threads),
		forceCtr: make([]sync4.Counter, steps),
		comCtr:   make([]sync4.Counter, steps),
		keAcc:    make([]sync4.Accumulator, steps),
		pAcc:     make([]sync4.Accumulator, 3*steps),
	}
	in.subtreeNodes = make([][64]int32, cfg.Threads)
	for i := range in.locks {
		in.locks[i] = cfg.Kit.NewLock()
	}
	in.rootReady = make([]sync4.Flag, steps)
	for s := 0; s < steps; s++ {
		in.forceCtr[s] = cfg.Kit.NewCounter()
		in.comCtr[s] = cfg.Kit.NewCounter()
		in.rootReady[s] = cfg.Kit.NewFlag()
		in.keAcc[s] = cfg.Kit.NewAccumulator()
		for d := 0; d < 3; d++ {
			in.pAcc[3*s+d] = cfg.Kit.NewAccumulator()
		}
	}

	// Uniform sphere with a small rotational velocity field: bounded,
	// non-degenerate, and deterministic per seed.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		for {
			px := 2*rng.Float64() - 1
			py := 2*rng.Float64() - 1
			pz := 2*rng.Float64() - 1
			if px*px+py*py+pz*pz > 1 {
				continue
			}
			in.x[3*i], in.x[3*i+1], in.x[3*i+2] = px, py, pz
			break
		}
		in.mass[i] = 1 / float64(n)
		in.v[3*i] = -0.3*in.x[3*i+1] + 0.01*rng.NormFloat64()
		in.v[3*i+1] = 0.3*in.x[3*i] + 0.01*rng.NormFloat64()
		in.v[3*i+2] = 0.01 * rng.NormFloat64()
	}
	return in, nil
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("barnes: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	lo, hi := core.BlockRange(tid, in.threads, in.n)
	var chunk [forceChunk]int32

	for s := 0; s < in.steps; s++ {
		// Phase 1: bounding-box reduction.
		if tid == 0 && s > 0 {
			in.minX.Reset()
			in.minY.Reset()
			in.minZ.Reset()
		}
		in.barrier.Wait()
		for i := lo; i < hi; i++ {
			in.minX.Update(in.x[3*i])
			in.minY.Update(in.x[3*i+1])
			in.minZ.Update(in.x[3*i+2])
		}
		in.barrier.Wait()

		// Phase 2: thread 0 roots the tree and publishes it with a
		// flag (the original's SETPAUSE; the other threads WAITPAUSE
		// instead of paying a full barrier), then everyone inserts.
		if tid == 0 {
			in.plantRoot()
			in.rootReady[s].Set()
		} else {
			in.rootReady[s].Wait()
		}
		nodes := &in.subtreeNodes[tid]
		*nodes = [64]int32{}
		for i := lo; i < hi; i++ {
			in.insert(int32(i), nodes)
		}
		in.barrier.Wait()

		// Phase 3: centers of mass and the walk. Thread 0 lists the
		// subtrees two levels down and places each one's walk entries by
		// the nodes the threads counted into it; all threads claim them
		// from a counter, fold them and lay them out; thread 0 then folds
		// the top of the tree and lays it out around them.
		if tid == 0 {
			in.planCOM()
		}
		in.barrier.Wait()
		for {
			t := in.comCtr[s].Inc() - 1
			if t >= int64(len(in.comTasks)) {
				break
			}
			in.runCOM(in.comTasks[t])
		}
		in.barrier.Wait()
		if tid == 0 {
			in.foldTop()
		}
		in.barrier.Wait()

		// Phase 4: forces, claimed in chunks of tree-order ranks from
		// the shared counter.
		for {
			start := (in.forceCtr[s].Add(1) - 1) * forceChunk
			if start >= int64(in.n) {
				break
			}
			end := min(start+forceChunk, int64(in.n))
			for _, b := range in.bodies(in.root, start, end, chunk[:0]) {
				in.gravity(b)
			}
		}
		in.barrier.Wait()

		// Phase 5: leapfrog update and reductions.
		var ke float64
		var p [3]float64
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				in.v[3*i+d] += dt * in.acc[3*i+d]
				in.x[3*i+d] += dt * in.v[3*i+d]
				ke += 0.5 * in.mass[i] * in.v[3*i+d] * in.v[3*i+d]
				p[d] += in.mass[i] * in.v[3*i+d]
			}
		}
		in.keAcc[s].Add(ke)
		for d := 0; d < 3; d++ {
			in.pAcc[3*s+d].Add(p[d])
		}
		in.barrier.Wait()
	}
}

// plantRoot publishes the cubic box that holds the reduced extremes, resets
// the arena and allocates an empty root cell.
func (in *instance) plantRoot() {
	lox, hix := in.minX.Min(), in.minX.Max()
	loy, hiy := in.minY.Min(), in.minY.Max()
	loz, hiz := in.minZ.Min(), in.minZ.Max()
	size := math.Max(hix-lox, math.Max(hiy-loy, hiz-loz))
	in.boxMin = math.Min(lox, math.Min(loy, loz))
	in.boxSize = size * 1.0001 // keep extremes strictly inside
	in.arenaCtr.Store(0)
	in.root = in.alloc(-1)
}

// alloc takes the next arena slot and initializes it as a leaf for body b
// (or an internal node when b < 0).
func (in *instance) alloc(b int32) int32 {
	idx := in.arenaCtr.Inc() - 1
	if idx >= int64(len(in.arena)) {
		panic("barnes: arena exhausted")
	}
	nd := &in.arena[idx]
	nd.body = b
	for o := range nd.children {
		nd.children[o] = -1
	}
	nd.mass = 0
	return int32(idx)
}

// octant returns which child octant of the cell at (cx,cy,cz) holds body b.
func (in *instance) octant(b int32, cx, cy, cz float64) int {
	o := 0
	if in.x[3*b] >= cx {
		o |= 1
	}
	if in.x[3*b+1] >= cy {
		o |= 2
	}
	if in.x[3*b+2] >= cz {
		o |= 4
	}
	return o
}

// childCenter returns the center of octant o of a cell centered at
// (cx,cy,cz) with half-width hw.
func childCenter(o int, cx, cy, cz, hw float64) (float64, float64, float64) {
	q := hw / 2
	if o&1 != 0 {
		cx += q
	} else {
		cx -= q
	}
	if o&2 != 0 {
		cy += q
	} else {
		cy -= q
	}
	if o&4 != 0 {
		cz += q
	} else {
		cz -= q
	}
	return cx, cy, cz
}

// insert descends to the cell where body b belongs and links it, locking one
// node at a time. Child slots change only under their parent's lock, and a
// node's leaf/internal kind is fixed at creation, so a slot read under the
// lock stays valid after release: internal children never become leaves.
// Unrelated cells can share a pool lock, which only serializes them: no
// thread ever holds two locks, so aliasing cannot deadlock.
// Coincident bodies would recurse forever, so depth overflow panics — the
// generators never produce them, and a deadlocked barrier would be the
// alternative.
//
// Every node insert adds below the top two levels is counted in
// nodes[8*o0+o1], the slot of its subtree, and so is a leaf it moves down
// out of the top levels: planCOM places the subtrees' walk entries by these
// counts.
func (in *instance) insert(b int32, nodes *[64]int32) {
	cur := in.root
	half := in.boxSize / 2
	cx := in.boxMin + half
	cy, cz := cx, cx
	hw := half
	sub := 0 // b's octants at depths 0 and 1, 8*o0+o1, once past depth 1
	for depth := 0; ; depth++ {
		if depth > 200 {
			panic("barnes: insertion depth overflow (coincident bodies?)")
		}
		nd := &in.arena[cur]
		o := in.octant(b, cx, cy, cz)
		if depth < 2 {
			sub = 8*sub + o
		}
		lock := in.locks[cur&(maxLock-1)]
		lock.Lock()
		c := nd.children[o]
		switch {
		case c < 0:
			nd.children[o] = in.alloc(b)
			lock.Unlock()
			if depth > 0 {
				nodes[sub]++
			}
			return
		case in.arena[c].body >= 0:
			// Occupied leaf: grow internal nodes under this slot
			// until the two bodies separate, all under nd's lock.
			other := in.arena[c].body
			ccx, ccy, ccz := childCenter(o, cx, cy, cz, hw)
			chw := hw / 2
			newInt := in.alloc(-1)
			nd.children[o] = newInt
			if depth > 0 {
				nodes[sub]++
			}
			// When c is a child of the root, the split moves it out
			// of the top levels into its own subtree, which its
			// octant in newInt picks.
			moved, subOther := depth == 0, 0
			pi := newInt
			for {
				if depth++; depth > 200 {
					panic("barnes: split depth overflow (coincident bodies?)")
				}
				ob := in.octant(other, ccx, ccy, ccz)
				bb := in.octant(b, ccx, ccy, ccz)
				if depth == 1 {
					subOther, sub = 8*sub+ob, 8*sub+bb
				}
				if ob != bb {
					in.arena[pi].children[ob] = c
					in.arena[pi].children[bb] = in.alloc(b)
					nodes[sub]++
					if moved {
						nodes[subOther]++
					}
					break
				}
				next := in.alloc(-1)
				nodes[sub]++
				in.arena[pi].children[ob] = next
				ccx, ccy, ccz = childCenter(ob, ccx, ccy, ccz, chw)
				chw /= 2
				pi = next
			}
			lock.Unlock()
			return
		default:
			// Internal child: descend.
			lock.Unlock()
			cur = c
			cx, cy, cz = childCenter(o, cx, cy, cz, hw)
			hw /= 2
		}
	}
}

// planCOM lists the COM phase's tasks, the subtrees two levels down, and
// places each one's walk entries. The walk is pre-order with children 7 to
// 0: the root, then for each child of the root its entry followed by its
// subtrees, each as many entries long as the threads counted nodes into it.
func (in *instance) planCOM() {
	in.comTasks = in.comTasks[:0]
	root := &in.arena[in.root]
	k := int32(1) // after the root's entry
	for o0 := 7; o0 >= 0; o0-- {
		c := root.children[o0]
		if c < 0 {
			continue
		}
		k++ // c's entry
		if in.arena[c].body >= 0 {
			continue // a leaf, folded and laid out by foldTop
		}
		for o1 := 7; o1 >= 0; o1-- {
			g := in.arena[c].children[o1]
			if g < 0 {
				continue
			}
			t := comTask{root: g, at: k}
			for _, nodes := range in.subtreeNodes {
				k += nodes[8*o0+o1]
			}
			t.end = k
			in.comTasks = append(in.comTasks, t)
		}
	}
}

// runCOM folds task t's subtree and lays it out. A cell two levels down has
// half-width boxSize/8, what halving boxSize/2 twice gives to the bit.
func (in *instance) runCOM(t comTask) {
	if in.layCOM(t.at, t.root, in.boxSize/8) != t.end {
		panic("barnes: a subtree's node count is off")
	}
}

// layCOM folds the subtree of idx, a cell of half-width hw, from its leaves
// up, and lays it out from walk[k] on; it returns the index after it.
func (in *instance) layCOM(k, idx int32, hw float64) int32 {
	nd := &in.arena[idx]
	next := k + 1
	if nd.body < 0 {
		for o := 7; o >= 0; o-- {
			if c := nd.children[o]; c >= 0 {
				next = in.layCOM(next, c, hw/2)
			}
		}
	}
	in.fold(nd)
	in.walk[k] = cellOf(nd, hw, next)
	return next
}

// foldTop completes the center-of-mass pass and the walk for the top two
// levels, whose deeper descendants the COM tasks folded and laid out.
func (in *instance) foldTop() {
	root := &in.arena[in.root]
	hw := in.boxSize / 2
	k := int32(1)
	for o0 := 7; o0 >= 0; o0-- {
		c := root.children[o0]
		if c < 0 {
			continue
		}
		nd := &in.arena[c]
		at := k
		k++
		if nd.body < 0 {
			for _, g := range nd.children {
				if g >= 0 {
					k = in.walk[k].skip
				}
			}
		}
		in.fold(nd)
		in.walk[at] = cellOf(nd, hw/2, k)
	}
	in.fold(root)
	in.walk[0] = cellOf(root, hw, k)
}

// cellOf is the walk entry of nd, a cell of half-width hw whose subtree's
// entries end before skip.
func cellOf(nd *node, hw float64, skip int32) cell {
	width := 2 * hw
	return cell{cx: nd.cx, cy: nd.cy, cz: nd.cz, mass: nd.mass, w2: width * width, body: nd.body, skip: skip}
}

// fold sets nd's count, mass and center of mass from its body if it is a
// leaf, or else from its children, which must already be folded.
func (in *instance) fold(nd *node) {
	if nd.body >= 0 {
		b := nd.body
		nd.count = 1
		nd.mass = in.mass[b]
		nd.cx, nd.cy, nd.cz = in.x[3*b], in.x[3*b+1], in.x[3*b+2]
		return
	}
	var count int32
	var m, mx, my, mz float64
	for _, c := range nd.children {
		if c < 0 {
			continue
		}
		ch := &in.arena[c]
		count += ch.count
		m += ch.mass
		mx += ch.mass * ch.cx
		my += ch.mass * ch.cy
		mz += ch.mass * ch.cz
	}
	nd.count = count
	nd.mass = m
	if m > 0 {
		nd.cx, nd.cy, nd.cz = mx/m, my/m, mz/m
	}
}

// bodies appends to out the bodies of idx's subtree whose tree-order ranks
// fall in [lo, hi), in tree order, by descending only into children whose
// counts overlap the range. Tree order is the depth-first order over
// children in octant order; it is a property of the body set and the box,
// not of the insertion order, because the octree is.
func (in *instance) bodies(idx int32, lo, hi int64, out []int32) []int32 {
	nd := &in.arena[idx]
	if nd.body >= 0 {
		return append(out, nd.body)
	}
	for _, c := range nd.children {
		if c < 0 {
			continue
		}
		cnt := int64(in.arena[c].count)
		if lo < cnt && hi > 0 {
			out = in.bodies(c, max(lo, 0), min(hi, cnt), out)
		}
		if lo, hi = lo-cnt, hi-cnt; hi <= 0 {
			break
		}
	}
	return out
}

// gravity computes the acceleration on body b by walking the tree with the
// opening-angle criterion: an accepted cell adds its pull and the walk skips
// its subtree, an opened one goes on to its children. The walk is the laid
// out array, so it needs no stack. Every cell holds a body, so none is
// massless.
func (in *instance) gravity(b int32) {
	bx, by, bz := in.x[3*b], in.x[3*b+1], in.x[3*b+2]
	var ax, ay, az float64
	walk := in.walk[:in.walk[0].skip]
	for i := 0; i < len(walk); {
		c := &walk[i]
		dx := c.cx - bx
		dy := c.cy - by
		dz := c.cz - bz
		r2 := dx*dx + dy*dy + dz*dz
		if c.body >= 0 || c.w2 < theta*theta*r2 {
			i = int(c.skip)
			if c.body == b {
				continue
			}
			r2 += eps * eps
			inv := 1 / (r2 * math.Sqrt(r2))
			g := c.mass * inv
			ax += g * dx
			ay += g * dy
			az += g * dz
			continue
		}
		i++
	}
	in.acc[3*b], in.acc[3*b+1], in.acc[3*b+2] = ax, ay, az
}

// WriteResult implements core.ResultWriter: positions, velocities and the
// last step's accelerations.
func (in *instance) WriteResult(w io.Writer) error {
	for _, f := range [][]float64{in.x, in.v, in.acc} {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	return nil
}

// bruteForce computes the exact acceleration on body b (verification
// oracle).
func (in *instance) bruteForce(b int) (ax, ay, az float64) {
	for j := 0; j < in.n; j++ {
		if j == b {
			continue
		}
		dx := in.x[3*j] - in.x[3*b]
		dy := in.x[3*j+1] - in.x[3*b+1]
		dz := in.x[3*j+2] - in.x[3*b+2]
		r2 := dx*dx + dy*dy + dz*dz + eps*eps
		inv := 1 / (r2 * math.Sqrt(r2))
		g := in.mass[j] * inv
		ax += g * dx
		ay += g * dy
		az += g * dz
	}
	return ax, ay, az
}

// countBodies walks the final tree and counts leaves (verification).
func (in *instance) countBodies(idx int32) int {
	nd := &in.arena[idx]
	if nd.body >= 0 {
		return 1
	}
	total := 0
	for _, c := range nd.children {
		if c >= 0 {
			total += in.countBodies(c)
		}
	}
	return total
}

// Verify implements core.Instance: the final tree must contain every body
// exactly once, and its root's count must say so; the root's mass must equal
// the bodies' and its center of mass their mass-weighted mean to within
// comTol of the box size; and the tree-walk accelerations must agree with
// the O(n^2) oracle to within the opening-angle approximation error.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("barnes: verify before run")
	}
	if got := in.countBodies(in.root); got != in.n {
		return fmt.Errorf("barnes: tree holds %d bodies, want %d", got, in.n)
	}
	root := &in.arena[in.root]
	if root.count != int32(in.n) {
		return fmt.Errorf("barnes: root counts %d bodies, want %d", root.count, in.n)
	}

	// The tree, its centers of mass and acc belong to the positions before
	// the last drift; rewind them for the comparisons.
	saved := slices.Clone(in.x)
	defer copy(in.x, saved)
	for i := range in.x {
		in.x[i] -= dt * in.v[i]
	}

	var m, mx, my, mz float64
	for i := 0; i < in.n; i++ {
		m += in.mass[i]
		mx += in.mass[i] * in.x[3*i]
		my += in.mass[i] * in.x[3*i+1]
		mz += in.mass[i] * in.x[3*i+2]
	}
	if math.Abs(root.mass-m) > 1e-9 {
		return fmt.Errorf("barnes: root mass %g, want %g", root.mass, m)
	}
	dx, dy, dz := root.cx-mx/m, root.cy-my/m, root.cz-mz/m
	if d := math.Sqrt(dx*dx+dy*dy+dz*dz) / in.boxSize; d > comTol {
		return fmt.Errorf("barnes: root center of mass (%g, %g, %g) is %.3g box sizes from the bodies' (%g, %g, %g)",
			root.cx, root.cy, root.cz, d, mx/m, my/m, mz/m)
	}

	var relSum float64
	samples := 32
	if samples > in.n {
		samples = in.n
	}
	stride := in.n / samples
	for k := 0; k < samples; k++ {
		b := k * stride
		ax, ay, az := in.bruteForce(b)
		gx, gy, gz := in.acc[3*b], in.acc[3*b+1], in.acc[3*b+2]
		mag := math.Sqrt(ax*ax+ay*ay+az*az) + 1e-12
		diff := math.Sqrt((gx-ax)*(gx-ax) + (gy-ay)*(gy-ay) + (gz-az)*(gz-az))
		rel := diff / mag
		relSum += rel
		if rel > 0.25 {
			return fmt.Errorf("barnes: body %d acceleration off by %.1f%%", b, rel*100)
		}
	}
	if mean := relSum / float64(samples); mean > 0.05 {
		return fmt.Errorf("barnes: mean acceleration error %.2f%% exceeds 5%%", mean*100)
	}
	return nil
}

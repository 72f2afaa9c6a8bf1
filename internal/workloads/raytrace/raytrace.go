// Package raytrace implements the RAYTRACE application: a Whitted-style
// recursive ray tracer. Workers pull image tiles from a shared task queue
// and every ray cast — primary, shadow, or reflection — takes a ticket from
// a single global ray counter.
//
// That counter is the paper's poster child: in Splash-3 it is an integer
// behind a lock acquired millions of times per frame; Splash-4 turns it into
// one fetch-and-add, and the tracer's scalability flips from poor to nearly
// linear. The tile queue is the original distributed work-pile collapsed to
// one MPMC queue (lock-based ring vs Vyukov ring, per kit).
//
// The original culls rays through a hierarchical uniform grid; this tracer
// keeps only the grid's root cell, a bounding box of the spheres: a ray that
// misses it skips the sphere loop and tests only the ground plane. Rays
// that never enter the box, such as most sky rays, are the ones that gain.
//
// Fidelity note (see DESIGN.md): the scene is procedural (sphere array over
// a checkered plane, two point lights) instead of the Ardent model files
// shipped with Splash, which we do not have. Rendering is a pure function of
// (scene, pixel), so the parallel image must match a sequential re-render
// bit for bit — that is the verification oracle.
//
// Scale mapping (image): test 128x128, small 256x256, default 512x512,
// large 1024x1024; 30 spheres, reflection depth 3.
package raytrace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	tileSize   = 16
	maxDepth   = 3
	numSpheres = 30
)

// Benchmark is the RAYTRACE descriptor.
type Benchmark struct{}

// New returns the RAYTRACE benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "raytrace" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "Whitted ray tracer with global ray counter and tile queue (app)"
}

func imageSize(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 128
	case core.ScaleSmall:
		return 256
	case core.ScaleDefault:
		return 512
	case core.ScaleLarge:
		return 1024
	default:
		return 512
	}
}

// vec is a 3-component vector.
type vec struct{ x, y, z float64 }

func (a vec) add(b vec) vec       { return vec{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec) sub(b vec) vec       { return vec{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec) scale(s float64) vec { return vec{a.x * s, a.y * s, a.z * s} }
func (a vec) mul(b vec) vec       { return vec{a.x * b.x, a.y * b.y, a.z * b.z} }
func (a vec) dot(b vec) float64   { return a.x*b.x + a.y*b.y + a.z*b.z }
func (a vec) norm() vec {
	l := math.Sqrt(a.dot(a))
	if l == 0 {
		return a
	}
	return a.scale(1 / l)
}

type sphere struct {
	center  vec
	radius  float64
	color   vec
	reflect float64
}

type light struct {
	pos   vec
	color vec
}

type scene struct {
	spheres []sphere
	lights  []light
	// lo and hi bound every sphere, with a margin that keeps a hit the
	// sphere loop computes inside the box despite rounding.
	lo, hi vec
}

// instance is one prepared render.
type instance struct {
	threads int
	size    int
	scene   scene

	img    []float64 // 3 * size * size
	tiles  sync4.Queue
	rayCtr sync4.Counter

	nTiles int
	ran    bool
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := imageSize(cfg.Scale)
	tilesPerDim := size / tileSize
	nTiles := tilesPerDim * tilesPerDim
	in := &instance{
		threads: cfg.Threads,
		size:    size,
		scene:   buildScene(cfg.Seed),
		img:     make([]float64, 3*size*size),
		tiles:   cfg.Kit.NewQueue(nTiles),
		rayCtr:  cfg.Kit.NewCounter(),
		nTiles:  nTiles,
	}
	// The work pile is loaded during initialization, as the original does
	// when it partitions the frame.
	for t := 0; t < nTiles; t++ {
		in.tiles.Put(int64(t))
	}
	return in, nil
}

// buildScene lays out a deterministic procedural scene for a seed.
func buildScene(seed int64) scene {
	rng := rand.New(rand.NewSource(seed))
	sc := scene{
		lights: []light{
			{pos: vec{-5, 8, -3}, color: vec{0.9, 0.85, 0.8}},
			{pos: vec{6, 10, -4}, color: vec{0.4, 0.45, 0.55}},
		},
	}
	for i := 0; i < numSpheres; i++ {
		r := 0.25 + 0.35*rng.Float64()
		sc.spheres = append(sc.spheres, sphere{
			center:  vec{-4 + 8*rng.Float64(), r, -1 + 8*rng.Float64()},
			radius:  r,
			color:   vec{0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64(), 0.2 + 0.8*rng.Float64()},
			reflect: 0.5 * rng.Float64(),
		})
	}
	sc.lo = vec{math.Inf(1), math.Inf(1), math.Inf(1)}
	sc.hi = vec{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, s := range sc.spheres {
		r := s.radius*(1+1e-3) + 1e-6
		sc.lo = vec{min(sc.lo.x, s.center.x-r), min(sc.lo.y, s.center.y-r), min(sc.lo.z, s.center.z-r)}
		sc.hi = vec{max(sc.hi.x, s.center.x+r), max(sc.hi.y, s.center.y+r), max(sc.hi.z, s.center.z+r)}
	}
	return sc
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("raytrace: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, func(tid int) {
		for {
			t, ok := in.tiles.TryGet()
			if !ok {
				return
			}
			in.renderTile(int(t), in.img, in.rayCtr)
		}
	})
	return nil
}

// renderTile renders tile t of the frame into img, ticking rays on ctr.
func (in *instance) renderTile(t int, img []float64, ctr sync4.Counter) {
	tilesPerDim := in.size / tileSize
	ty := (t / tilesPerDim) * tileSize
	tx := (t % tilesPerDim) * tileSize
	for y := ty; y < ty+tileSize; y++ {
		for x := tx; x < tx+tileSize; x++ {
			c := in.tracePixel(x, y, ctr)
			p := 3 * (y*in.size + x)
			img[p], img[p+1], img[p+2] = c.x, c.y, c.z
		}
	}
}

// tracePixel shoots the primary ray for pixel (x, y).
func (in *instance) tracePixel(x, y int, ctr sync4.Counter) vec {
	// Simple pinhole camera above the plane looking forward.
	fx := (float64(x)+0.5)/float64(in.size)*2 - 1
	fy := 1 - (float64(y)+0.5)/float64(in.size)*2
	origin := vec{0, 2.5, -7}
	dir := vec{fx * 1.2, fy*1.2 - 0.25, 1}.norm()
	return in.trace(origin, dir, 0, ctr)
}

// intersect finds the nearest hit along the ray. kind: 0 none, 1 sphere,
// 2 plane. A ray that misses the scene's bound skips the sphere loop.
func (in *instance) intersect(o, d vec) (kind, idx int, tHit float64) {
	const inf = math.MaxFloat64
	tHit = inf
	if in.scene.mayHitSpheres(o, d) {
		for i := range in.scene.spheres {
			s := &in.scene.spheres[i]
			oc := o.sub(s.center)
			b := oc.dot(d)
			c := oc.dot(oc) - s.radius*s.radius
			disc := b*b - c
			if disc <= 0 {
				continue
			}
			sq := math.Sqrt(disc)
			for _, tc := range [2]float64{-b - sq, -b + sq} {
				if tc > 1e-6 && tc < tHit {
					tHit = tc
					kind, idx = 1, i
				}
			}
		}
	}
	// Ground plane y = 0.
	if d.y < -1e-9 {
		tp := -o.y / d.y
		if tp > 1e-6 && tp < tHit {
			tHit = tp
			kind, idx = 2, 0
		}
	}
	if tHit == inf {
		return 0, 0, 0
	}
	return kind, idx, tHit
}

// mayHitSpheres is a slab test of the ray against the spheres' bound: it
// returns false only if the ray never enters the box at t >= 0 (the one-cell
// case of the original's uniform grid). An origin on a face with a zero
// direction component gives 0·∞ = NaN, which min and max propagate and
// every comparison fails on, so the ray counts as a hit.
func (sc *scene) mayHitSpheres(o, d vec) bool {
	ix, iy, iz := 1/d.x, 1/d.y, 1/d.z
	x0, x1 := (sc.lo.x-o.x)*ix, (sc.hi.x-o.x)*ix
	y0, y1 := (sc.lo.y-o.y)*iy, (sc.hi.y-o.y)*iy
	z0, z1 := (sc.lo.z-o.z)*iz, (sc.hi.z-o.z)*iz
	tNear := max(min(x0, x1), min(y0, y1), min(z0, z1))
	tFar := min(max(x0, x1), max(y0, y1), max(z0, z1))
	return !(tFar < tNear || tFar < 0)
}

// trace follows one ray (ticking the global counter) and returns its color.
func (in *instance) trace(o, d vec, depth int, ctr sync4.Counter) vec {
	ctr.Inc() // the contended global ray ticket

	kind, idx, tHit := in.intersect(o, d)
	if kind == 0 {
		// Sky gradient.
		g := 0.5 * (d.y + 1)
		return vec{0.25, 0.35, 0.5}.scale(g).add(vec{0.05, 0.05, 0.08})
	}
	hit := o.add(d.scale(tHit))

	var n vec
	var base vec
	var refl float64
	if kind == 1 {
		s := &in.scene.spheres[idx]
		n = hit.sub(s.center).norm()
		base = s.color
		refl = s.reflect
	} else {
		n = vec{0, 1, 0}
		// Checkerboard.
		if (int(math.Floor(hit.x))+int(math.Floor(hit.z)))&1 == 0 {
			base = vec{0.85, 0.85, 0.85}
		} else {
			base = vec{0.2, 0.2, 0.25}
		}
		refl = 0.15
	}

	col := base.scale(0.1) // ambient
	for _, l := range in.scene.lights {
		toL := l.pos.sub(hit)
		dist := math.Sqrt(toL.dot(toL))
		ldir := toL.scale(1 / dist)
		// Shadow ray (also a counted ray).
		ctr.Inc()
		sk, _, st := in.intersect(hit.add(n.scale(1e-6)), ldir)
		if sk != 0 && st < dist {
			continue
		}
		if diff := n.dot(ldir); diff > 0 {
			col = col.add(base.mul(l.color).scale(diff))
		}
		h := ldir.sub(d).norm()
		if spec := n.dot(h); spec > 0 {
			col = col.add(l.color.scale(0.3 * pow32(spec)))
		}
	}

	if refl > 0 && depth < maxDepth {
		rd := d.sub(n.scale(2 * d.dot(n)))
		rc := in.trace(hit.add(n.scale(1e-6)), rd, depth+1, ctr)
		col = col.add(rc.scale(refl))
	}
	return col
}

// pow32 returns math.Pow(s, 32) bit for bit, by five squarings. For an
// integral exponent Pow squares the mantissa of s five times, renormalising
// each square into [0.5, 1) by an exact doubling, and applies the exponent
// once at the end with Ldexp. Scaling by a power of two does not change how
// a product rounds while every value stays normal, so the squarings round
// exactly as Pow's do whenever their result is at least 2^-1022, the least
// normal float64 (s^2 to s^16 are larger still). That holds from
// s = 0x1.0b5586cf9891p-32 (2.431389369134358e-10) up: the least float64
// whose squarings reach 2^-1022, one ulp above 2^(-1022/32) rounded. Below
// it the squarings round on the subnormal grid, where Pow rounds at full
// precision and then once more in Ldexp; the two can differ, so Pow
// computes those.
func pow32(s float64) float64 {
	p := s * s
	p *= p
	p *= p
	p *= p
	p *= p
	if p < 0x1p-1022 {
		return math.Pow(s, 32)
	}
	return p
}

// Verify implements core.Instance: a full sequential re-render must match
// the parallel image exactly, and the global ray counter must equal the
// sequential ray count exactly (rendering is a pure function of the scene).
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("raytrace: verify before run")
	}
	ref := make([]float64, len(in.img))
	ctr := &plainCounter{}
	for t := 0; t < in.nTiles; t++ {
		in.renderTile(t, ref, ctr)
	}
	for i := range ref {
		if in.img[i] != ref[i] {
			return fmt.Errorf("raytrace: pixel component %d: got %g want %g", i, in.img[i], ref[i])
		}
	}
	if got := in.rayCtr.Load(); got != ctr.v {
		return fmt.Errorf("raytrace: ray counter %d, sequential count %d", got, ctr.v)
	}
	if ctr.v < int64(in.size*in.size) {
		return fmt.Errorf("raytrace: implausible ray count %d for %d pixels", ctr.v, in.size*in.size)
	}
	return nil
}

// WriteResult implements core.ResultWriter: the image, then the ray count.
func (in *instance) WriteResult(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, in.img); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, float64(in.rayCtr.Load()))
}

// plainCounter is the single-threaded counter used by the oracle re-render.
type plainCounter struct{ v int64 }

func (c *plainCounter) Add(d int64) int64 { c.v += d; return c.v }
func (c *plainCounter) Inc() int64        { c.v++; return c.v }
func (c *plainCounter) Load() int64       { return c.v }
func (c *plainCounter) Store(v int64)     { c.v = v }

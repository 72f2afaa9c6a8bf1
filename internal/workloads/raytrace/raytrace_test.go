package raytrace

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, New())
}

func TestDifferentScenesRender(t *testing.T) {
	for _, seed := range []int64{0, 8, 99} {
		inst, err := New().Prepare(core.Config{Threads: 6, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInstanceReuseFails(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

// refIntersect is intersect as it was before the scene bound, kept verbatim
// as the oracle the bounded one must match.
func (in *instance) refIntersect(o, d vec) (kind, idx int, tHit float64) {
	const inf = math.MaxFloat64
	tHit = inf
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

// refTrace is trace with every intersection taken by refIntersect.
func (in *instance) refTrace(o, d vec, depth int, ctr sync4.Counter) vec {
	ctr.Inc() // the contended global ray ticket

	kind, idx, tHit := in.refIntersect(o, d)
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
		sk, _, st := in.refIntersect(hit.add(n.scale(1e-6)), ldir)
		if sk != 0 && st < dist {
			continue
		}
		if diff := n.dot(ldir); diff > 0 {
			col = col.add(base.mul(l.color).scale(diff))
		}
		h := ldir.sub(d).norm()
		if spec := n.dot(h); spec > 0 {
			col = col.add(l.color.scale(0.3 * math.Pow(spec, 32)))
		}
	}

	if refl > 0 && depth < maxDepth {
		rd := d.sub(n.scale(2 * d.dot(n)))
		rc := in.refTrace(hit.add(n.scale(1e-6)), rd, depth+1, ctr)
		col = col.add(rc.scale(refl))
	}
	return col
}

// TestRenderMatchesReference holds a parallel render's image and ray count
// to a sequential one through refIntersect. Verify re-renders with the same
// intersect, so a bound that drops a hit passes it; this does not.
func TestRenderMatchesReference(t *testing.T) {
	cases := []struct {
		scale core.Scale
		seeds []int64
	}{
		{core.ScaleTest, []int64{1, 7, 77}},
		{core.ScaleSmall, []int64{1, 7, 77}},
		{core.ScaleDefault, []int64{7}},
	}
	for _, c := range cases {
		if c.scale == core.ScaleDefault && testing.Short() {
			continue
		}
		for _, seed := range c.seeds {
			inst, err := New().Prepare(core.Config{Threads: 3, Kit: lockfree.New(), Scale: c.scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(); err != nil {
				t.Fatal(err)
			}
			in := inst.(*instance)
			ctr := &plainCounter{}
			for y := 0; y < in.size; y++ {
				for x := 0; x < in.size; x++ {
					fx := (float64(x)+0.5)/float64(in.size)*2 - 1
					fy := 1 - (float64(y)+0.5)/float64(in.size)*2
					col := in.refTrace(vec{0, 2.5, -7}, vec{fx * 1.2, fy*1.2 - 0.25, 1}.norm(), 0, ctr)
					p := 3 * (y*in.size + x)
					if got := (vec{in.img[p], in.img[p+1], in.img[p+2]}); got != col {
						t.Fatalf("scale %s seed %d pixel (%d,%d): %v, reference %v", c.scale, seed, x, y, got, col)
					}
				}
			}
			if got := in.rayCtr.Load(); got != ctr.v {
				t.Errorf("scale %s seed %d: %d rays, reference %d", c.scale, seed, got, ctr.v)
			}
		}
	}
}

// TestBoundNeverDropsAHit casts rays built to sit on the bound's edge cases
// and requires intersect's answer, tHit's bits included, to be
// refIntersect's: axis-parallel rays from each face of the box, whose zero
// direction components make 0·∞ = NaN slabs, and rays grazing each sphere
// at radius·(1 ± 1e-12). A ray lying in a face's plane cannot reach a
// sphere through the margin, so for those the bound's own answer is checked:
// the NaN must count as a hit.
func TestBoundNeverDropsAHit(t *testing.T) {
	axes := []vec{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for _, seed := range []int64{1, 7, 77} {
		inst, err := New().Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*instance)
		sc := &in.scene
		var rays, hits, nans int
		inFace := func(o, d vec) bool {
			return d.x == 0 && (o.x == sc.lo.x || o.x == sc.hi.x) ||
				d.y == 0 && (o.y == sc.lo.y || o.y == sc.hi.y) ||
				d.z == 0 && (o.z == sc.lo.z || o.z == sc.hi.z)
		}
		check := func(o, d vec) {
			t.Helper()
			if inFace(o, d) {
				nans++
				if !sc.mayHitSpheres(o, d) {
					t.Fatalf("seed %d, ray %v + t·%v lies in a face of the bound and was rejected: a 0·∞ slab must count as a hit", seed, o, d)
				}
			}
			gk, gi, gt := in.intersect(o, d)
			wk, wi, wt := in.refIntersect(o, d)
			if gk != wk || gi != wi || math.Float64bits(gt) != math.Float64bits(wt) {
				t.Fatalf("seed %d, ray %v + t·%v: (%d, %d, %v), reference (%d, %d, %v)", seed, o, d, gk, gi, gt, wk, wi, wt)
			}
			rays++
			if wk == 1 {
				hits++
			}
		}
		for _, s := range sc.spheres {
			c := s.center
			// The sphere's center projected onto each face and onto three
			// edges of the box.
			faces := []vec{
				{sc.lo.x, c.y, c.z}, {sc.hi.x, c.y, c.z},
				{c.x, sc.lo.y, c.z}, {c.x, sc.hi.y, c.z},
				{c.x, c.y, sc.lo.z}, {c.x, c.y, sc.hi.z},
				{sc.lo.x, sc.lo.y, c.z}, {sc.hi.x, c.y, sc.hi.z}, {c.x, sc.hi.y, sc.lo.z},
			}
			for _, o := range faces {
				for _, d := range axes {
					check(o, d)
				}
			}
			// Grazing rays along each axis, offset along each other axis.
			for _, d := range axes {
				for _, off := range axes {
					if d.dot(off) != 0 {
						continue
					}
					for _, k := range []float64{1 - 1e-12, 1, 1 + 1e-12} {
						p := c.add(off.scale(s.radius * k))
						check(p.sub(d.scale(10)), d)
						check(p.sub(d.scale(2*s.radius)), d)
					}
				}
			}
			// Grazing rays from the camera, aimed at the sphere's silhouette.
			cam := vec{0, 2.5, -7}
			toC := c.sub(cam)
			dist := math.Sqrt(toC.dot(toC))
			up := vec{0, 1, 0}
			side := vec{toC.z, 0, -toC.x}.norm()
			for _, perp := range []vec{up.sub(toC.scale(up.dot(toC) / (dist * dist))).norm(), side} {
				for _, k := range []float64{1 - 1e-12, 1, 1 + 1e-12} {
					// The tangent point's direction: sin of the half-angle
					// is r/dist.
					sin := s.radius * k / dist
					cos := math.Sqrt(1 - sin*sin)
					check(cam, toC.scale(cos/dist).add(perp.scale(sin)).norm())
					check(cam, toC.scale(cos/dist).sub(perp.scale(sin)).norm())
				}
			}
		}
		if hits == 0 || nans == 0 {
			t.Errorf("seed %d: of %d rays, %d hit a sphere and %d lie in a face: the comparison proves nothing", seed, rays, hits, nans)
		}
		t.Logf("seed %d: %d rays, %d sphere hits, %d in a face", seed, rays, hits, nans)
	}
}

// squarings is s^32 by five squarings with no fallback.
func squarings(s float64) float64 {
	p := s * s
	p *= p
	p *= p
	p *= p
	return p * p
}

// TestPow32MatchesPow holds pow32 to math.Pow(s, 32) bit for bit: 10^6
// evenly spaced values in (0, 1], every float64 within 1 000 ulps of the
// switch-over, and 10^6 evenly spaced values below it whose 32nd powers are
// subnormal or zero. The switch-over is derived
// here, by bisection, as the least float64 whose squarings reach 2^-1022,
// and must be the one pow32's comment states.
func TestPow32MatchesPow(t *testing.T) {
	check := func(s float64) {
		t.Helper()
		if got, want := pow32(s), math.Pow(s, 32); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow32(%v) = %v, math.Pow %v", s, got, want)
		}
	}
	const n = 1_000_000
	for i := 1; i <= n; i++ {
		check(float64(i) / n)
	}

	lo, hi := uint64(0), math.Float64bits(1)
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if squarings(math.Float64frombits(mid)) >= 0x1p-1022 {
			hi = mid
		} else {
			lo = mid
		}
	}
	if s := math.Float64frombits(hi); s != 0x1.0b5586cf9891p-32 {
		t.Errorf("the least float64 whose squarings are normal is %x, pow32's comment says 0x1.0b5586cf9891p-32", s)
	}
	for b := hi - 1000; b <= hi+1000; b++ {
		check(math.Float64frombits(b))
	}

	// From 2^-34 to the switch-over s^32 goes from 0 through the whole
	// subnormal range. There the squarings alone must be wrong somewhere,
	// or the fallback is untested.
	var differ int
	from, to := 0x1p-34, math.Float64frombits(hi)
	for i := 0; i < n; i++ {
		s := from + (to-from)*float64(i)/n
		check(s)
		if math.Float64bits(squarings(s)) != math.Float64bits(math.Pow(s, 32)) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("below the switch-over the squarings match math.Pow everywhere: the fallback is untested")
	}
	t.Logf("switch-over %x; below it the squarings alone differ from math.Pow at %d of %d values", math.Float64frombits(hi), differ, n)
}

package volrend

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, New())
}

func TestDifferentVolumesRender(t *testing.T) {
	for _, seed := range []int64{1, 77} {
		inst, err := New().Prepare(core.Config{Threads: 9, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: seed})
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
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: core.ScaleTest})
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

func prepare(t *testing.T, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: 1, Kit: lockfree.New(), Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// refCastRay and refSample are the kernel as it was before the empty-cell
// map: every step of every ray takes a bounds-checked trilinear sample.
// They are kept verbatim, apart from the density index order, as the oracle
// the fast path must match bit for bit.
func (in *instance) refCastRay(px, py int) float64 {
	fx := (float64(px) + 0.5) / float64(in.img)
	fy := (float64(py) + 0.5) / float64(in.img)

	step := 0.5 / float64(in.vol)
	var intensity, opacity float64
	for tz := 0.0; tz < 1; tz += step {
		d := float64(in.refSample(fx, fy, tz))
		// Transfer function: densities below a floor are transparent,
		// above it opacity and emission grow with density.
		if d < 0.15 {
			continue
		}
		a := (d - 0.15) * 0.9 * step * float64(in.vol) / 4
		if a > 1 {
			a = 1
		}
		emit := 0.3 + 0.7*math.Min(d, 1.5)/1.5
		intensity += (1 - opacity) * a * emit
		opacity += (1 - opacity) * a
		if opacity > opacityLimit {
			break
		}
	}
	return intensity
}

// refSample returns the trilinearly interpolated density at normalized
// coordinates (x, y, z) in [0,1).
func (in *instance) refSample(x, y, z float64) float32 {
	v := in.vol
	gx := x*float64(v) - 0.5
	gy := y*float64(v) - 0.5
	gz := z*float64(v) - 0.5
	x0, y0, z0 := int(math.Floor(gx)), int(math.Floor(gy)), int(math.Floor(gz))
	fx := float32(gx - float64(x0))
	fy := float32(gy - float64(y0))
	fz := float32(gz - float64(z0))
	at := func(xi, yi, zi int) float32 {
		if xi < 0 || yi < 0 || zi < 0 || xi >= v || yi >= v || zi >= v {
			return 0
		}
		return in.density[(yi*v+xi)*v+zi]
	}
	lerp := func(a, b, f float32) float32 { return a + (b-a)*f }
	c00 := lerp(at(x0, y0, z0), at(x0+1, y0, z0), fx)
	c10 := lerp(at(x0, y0+1, z0), at(x0+1, y0+1, z0), fx)
	c01 := lerp(at(x0, y0, z0+1), at(x0+1, y0, z0+1), fx)
	c11 := lerp(at(x0, y0+1, z0+1), at(x0+1, y0+1, z0+1), fx)
	return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
}

// TestFastPathMatchesReferenceRayForRay is the kernel's oracle: Verify
// re-renders with the same renderTile, so a wrong skip or a packet that
// mixes up its rays passes it; this does not. Every tile is rendered, and
// every stride-th row and column is compared with refCastRay.
func TestFastPathMatchesReferenceRayForRay(t *testing.T) {
	cases := []struct {
		scale  core.Scale
		seeds  []int64
		stride int // every stride-th row and column
	}{
		{core.ScaleTest, []int64{1, 7, 77}, 1},
		{core.ScaleSmall, []int64{1, 7, 77}, 1},
		{core.ScaleDefault, []int64{7}, 5},
		{core.ScaleLarge, []int64{7}, 5},
	}
	for _, c := range cases {
		if c.stride > 1 && testing.Short() {
			continue
		}
		for _, seed := range c.seeds {
			in := prepare(t, c.scale, seed)
			img := make([]float64, len(in.image))
			for tile := 0; tile < in.nTiles; tile++ {
				in.renderTile(tile, img)
			}
			var lit int
			for py := 0; py < in.img; py += c.stride {
				for px := 0; px < in.img; px += c.stride {
					got, want := img[py*in.img+px], in.refCastRay(px, py)
					if got != want {
						t.Fatalf("scale %s seed %d pixel (%d,%d): fast path %v, reference %v", c.scale, seed, px, py, got, want)
					}
					if want != 0 {
						lit++
					}
				}
			}
			if lit == 0 {
				t.Errorf("scale %s seed %d: every compared ray is black, the comparison proves nothing", c.scale, seed)
			}
		}
	}
}

// refSynthesize is synthesizeVolume as it was before the shell table, with
// the shell term evaluated per voxel. It is kept verbatim as the oracle the
// table must match bit for bit, and overwrites in.density.
func (in *instance) refSynthesize(seed int64) {
	v := in.vol
	blobs := seedBlobs(seed)
	coord := func(i int) float64 { return (float64(i) + 0.5) / float64(v) }
	// ex[i][b] is blob b's factor along x at voxel i; ey and ez likewise.
	ex := make([][nBlobs]float64, v)
	ey := make([][nBlobs]float64, v)
	ez := make([][nBlobs]float64, v)
	for i := 0; i < v; i++ {
		f := coord(i)
		for b, bl := range blobs {
			factor := func(centre float64) float64 {
				g := f - centre
				return math.Exp(-(g * g) / (bl.w * bl.w))
			}
			ex[i][b], ey[i][b], ez[i][b] = factor(bl.x), factor(bl.y), factor(bl.z)
		}
	}
	for y := 0; y < v; y++ {
		for x := 0; x < v; x++ {
			dx, dy := coord(x)-0.5, coord(y)-0.5
			var exy [nBlobs]float64
			for b := range exy {
				exy[b] = 0.7 * ex[x][b] * ey[y][b]
			}
			col := in.column(x, y)
			for z := range col {
				dz := coord(z) - 0.5
				r := math.Sqrt(dx*dx + dy*dy + dz*dz)
				d := math.Exp(-((r - 0.4) * (r - 0.4)) / 0.002)
				for b, f := range ez[z] {
					d += exy[b] * f
				}
				col[z] = float32(d)
			}
		}
	}
}

// TestShellTableMatchesPerVoxelShell holds the shell table to the per-voxel
// formula it replaced. At 192^3 the voxel coordinates are not exact binary
// fractions, so the table's radius can differ from the per-voxel one in the
// last float64 bit; the float32 densities must still be identical.
func TestShellTableMatchesPerVoxelShell(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault, core.ScaleLarge} {
		if scale == core.ScaleLarge && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 7, 77} {
			in := prepare(t, scale, seed)
			got := slices.Clone(in.density)
			in.refSynthesize(seed)
			for i, want := range in.density {
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("scale %s seed %d voxel %d: shell table %v, per-voxel shell %v", scale, seed, i, got[i], want)
				}
			}
		}
	}
}

func TestSeparableFieldMatchesDirectFormula(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall} {
		const seed = 7
		in := prepare(t, scale, seed)
		v := in.vol
		blobs := seedBlobs(seed)
		var worst float64
		for z := 0; z < v; z++ {
			for y := 0; y < v; y++ {
				for x := 0; x < v; x++ {
					fx := (float64(x) + 0.5) / float64(v)
					fy := (float64(y) + 0.5) / float64(v)
					fz := (float64(z) + 0.5) / float64(v)
					dx, dy, dz := fx-0.5, fy-0.5, fz-0.5
					r := math.Sqrt(dx*dx + dy*dy + dz*dz)
					d := math.Exp(-((r - 0.4) * (r - 0.4)) / 0.002)
					for _, b := range blobs {
						gx, gy, gz := fx-b.x, fy-b.y, fz-b.z
						d += 0.7 * math.Exp(-(gx*gx+gy*gy+gz*gz)/(b.w*b.w))
					}
					got := float64(in.column(x, y)[z])
					worst = max(worst, math.Abs(got-float64(float32(d))))
				}
			}
		}
		if worst > 1e-6 {
			t.Errorf("scale %s: separable field is %g away from the direct formula, want <= 1e-6", scale, worst)
		}
	}
}

// TestSameSeedSameFieldUnderEitherKit checks the promise in
// core.Config.Seed's comment for this program.
func TestSameSeedSameFieldUnderEitherKit(t *testing.T) {
	a, err := New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: core.ScaleTest, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := prepare(t, core.ScaleTest, 7)
	da, db := a.(*instance).density, b.density
	if len(da) != len(db) {
		t.Fatalf("density lengths %d and %d", len(da), len(db))
	}
	for i := range da {
		if math.Float32bits(da[i]) != math.Float32bits(db[i]) {
			t.Fatalf("voxel %d: classic %v, lockfree %v", i, da[i], db[i])
		}
	}
}

func TestTablesFitWithinTheVolumesOwnBytes(t *testing.T) {
	in := prepare(t, core.ScaleDefault, 7)
	tables := 2*len(in.nextActive) + 4*(len(in.zeros)+len(in.zCell)+len(in.zFrac)+len(in.firstStep))
	if volume := 4 * len(in.density); tables > volume {
		t.Errorf("tables take %d bytes, the volume %d", tables, volume)
	}
}

// refBuildEmptyCellMap is buildEmptyCellMap as it was before the bitmasks,
// one running maximum per cell column, kept verbatim as the oracle the masks
// must match bit for bit, and overwrites in.nextActive.
func (in *instance) refBuildEmptyCellMap() {
	v := in.vol
	n := v + 1
	in.nextActive = make([]uint16, n*n*n)
	// colMax[z+1] is the largest of a cell column's four voxel columns at
	// z; both ends stay zero, for the voxels outside the volume.
	colMax := make([]float32, v+2)
	for cy := 0; cy < n; cy++ {
		for cx := 0; cx < n; cx++ {
			c00, c10 := in.column(cx-1, cy-1), in.column(cx, cy-1)
			c01, c11 := in.column(cx-1, cy), in.column(cx, cy)
			for z := 0; z < v; z++ {
				colMax[z+1] = max(c00[z], c10[z], c01[z], c11[z])
			}
			next := in.nextActive[(cy*n+cx)*n:][:n]
			active := uint16(n)
			for c := v; c >= 0; c-- {
				if float64(max(colMax[c], colMax[c+1])) >= densityFloor-emptyMargin {
					active = uint16(c)
				}
				next[c] = active
			}
		}
	}
}

// TestEmptyCellMapMatchesReference holds the bitmask map to the running
// maximum it replaced, entry for entry.
func TestEmptyCellMapMatchesReference(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault, core.ScaleLarge} {
		if scale == core.ScaleLarge && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 7, 77} {
			in := prepare(t, scale, seed)
			got := in.nextActive
			in.refBuildEmptyCellMap()
			var skips int
			for i, want := range in.nextActive {
				if got[i] != want {
					t.Fatalf("scale %s seed %d entry %d: bitmask map %d, reference %d", scale, seed, i, got[i], want)
				}
				if int(want) > i%(in.vol+1) {
					skips++
				}
			}
			if skips == 0 {
				t.Errorf("scale %s seed %d: no entry skips a cell, the comparison proves nothing", scale, seed)
			}
		}
	}
}

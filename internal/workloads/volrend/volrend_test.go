package volrend

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, New())
}

// TestFastPathMatchesReferenceRayForRay holds every ray of the image bit
// for bit to volrend's committed result digests under both kits at 1, 2, 3
// and 7 threads. Verify re-renders with the same renderTile, so a wrong
// skip or a packet that mixes up its rays passes it; this does not.
func TestFastPathMatchesReferenceRayForRay(t *testing.T) {
	workloadtest.MatchesDigests(t, New(), 1, 2, 3, 7)
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

// TestShellTableMatchesPerVoxelShell holds the shell table to the shell
// term computed per voxel from the voxel's own radius, with the blobs added
// in the program's order. At 192^3 the voxel coordinates are not exact
// binary fractions, so the table's radius can differ from the per-voxel one
// in the last float64 bit; the float32 densities must still be identical.
func TestShellTableMatchesPerVoxelShell(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault, core.ScaleLarge} {
		if scale == core.ScaleLarge && testing.Short() {
			continue
		}
		for _, seed := range []int64{1, 7, 77} {
			in := prepare(t, scale, seed)
			v := in.vol
			blobs := seedBlobs(seed)
			coord := func(i int) float64 { return (float64(i) + 0.5) / float64(v) }
			// f[i][b] is blob b's factor along x, y and z at voxel i.
			f := make([][nBlobs][3]float64, v)
			for i := range f {
				for b, bl := range blobs {
					for a, centre := range [3]float64{bl.x, bl.y, bl.z} {
						g := coord(i) - centre
						f[i][b][a] = math.Exp(-(g * g) / (bl.w * bl.w))
					}
				}
			}
			for y := 0; y < v; y++ {
				for x := 0; x < v; x++ {
					for z, got := range in.column(x, y) {
						dx, dy, dz := coord(x)-0.5, coord(y)-0.5, coord(z)-0.5
						r := math.Sqrt(dx*dx + dy*dy + dz*dz)
						d := math.Exp(-((r - 0.4) * (r - 0.4)) / 0.002)
						for b := range blobs {
							d += 0.7 * f[x][b][0] * f[y][b][1] * f[z][b][2]
						}
						if math.Float32bits(got) != math.Float32bits(float32(d)) {
							t.Fatalf("scale %s seed %d voxel (%d,%d,%d): shell table %v, per-voxel shell %v", scale, seed, x, y, z, got, float32(d))
						}
					}
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

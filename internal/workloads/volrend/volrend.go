// Package volrend implements the VOLREND application: ray-cast volume
// rendering with front-to-back compositing, early ray termination and
// empty-space skipping. Workers claim image tiles dynamically by
// incrementing a shared tile counter — the original's task-stealing
// counters, which Splash-3 guards with a lock per fetch and Splash-4
// replaces with fetch-and-add.
//
// Fidelity note (see DESIGN.md): the original renders a 256^3 CT "head"
// dataset we do not have; the volume here is a synthetic density field (a
// nested shell plus Gaussian blobs) with the same access pattern (trilinear
// sampling along rays, transfer-function compositing). The original skips
// transparent space with a min-max octree and renders from any angle; the
// view here is fixed and orthographic, rays run along z, and the octree is
// flattened into a per-column map of the next cell that can contribute.
// Rendering is a pure function of the volume, so the parallel image must
// match a sequential re-render exactly.
//
// Rays march per cell column: the rays of a tile row that fall in the same
// cell column, four per voxel at every scale (two and two where a tile edge
// splits a column), make one pass over the shared z sequence and empty-cell
// map and read the column's four voxel columns once for all of them. Each
// keeps its own slices, compositing and early termination, so it does
// exactly the arithmetic of a ray cast alone.
//
// Layout: the density is stored z fastest, (y*vol+x)*vol+z, so a ray reads
// four contiguous columns. Prepare builds, per instance, the z sequence all
// rays share (cell and weight per step, first step per cell; a few KiB) and
// the empty-cell map (one uint16 per (vol+1)^3 cell, about half the
// volume's bytes). While it synthesizes the volume it also holds a table of
// the shell term by squared radius, 3*(vol-1)^2+1 float64s (0.4 MiB at
// 128^3, 0.9 MiB at 192^3), and while it builds the map one bitmask per
// voxel column, ceil((vol+1)/64) uint64s each (0.4 MiB at 128^3, 1.1 MiB
// at 192^3); it drops both afterwards. Both passes are arithmetic-bound:
// the volume is summed a column at a time with the blob weights in
// registers, and the map is filled from the masks' set bits.
//
// Scale mapping (volume/image, volume + map memory): test 32^3/128^2
// (0.2 MiB), small 64^3/256^2 (1.5 MiB), default 128^3/512^2 (12 MiB),
// large 192^3/768^2 (41 MiB).
package volrend

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	tileSize     = 16
	opacityLimit = 0.95 // early ray termination threshold
	densityFloor = 0.15 // the transfer function is transparent below this
	emptyMargin  = 0.01 // see buildEmptyCellMap
)

// Benchmark is the VOLREND descriptor.
type Benchmark struct{}

// New returns the VOLREND benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "volrend" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "ray-cast volume renderer with dynamic tile counter (app)"
}

func sizes(s core.Scale) (vol, img int) {
	switch s {
	case core.ScaleTest:
		return 32, 128
	case core.ScaleSmall:
		return 64, 256
	case core.ScaleDefault:
		return 128, 512
	case core.ScaleLarge:
		return 192, 768
	default:
		return 128, 512
	}
}

type instance struct {
	threads int
	vol     int // voxels per dimension
	img     int // pixels per dimension

	density []float32 // vol^3 scalar field, z fastest: (y*vol+x)*vol+z
	zeros   []float32 // one column of zeros: every column outside the volume
	image   []float64 // img^2 composited intensities

	// The z sequence is the same for every ray: step k samples between
	// slices zCell[k]-1 and zCell[k] with weight zFrac[k]. Cells are
	// numbered 0..vol in every dimension; cell c spans voxels c-1 and c,
	// and voxels outside the volume are zero.
	zCell []int32
	zFrac []float32
	// firstStep[c] is the first step whose cell is >= c (len(zCell) when
	// there is none), for c in 0..vol+1.
	firstStep []int32
	// nextActive is the empty-cell map, one run of vol+1 entries per
	// (y, x) cell column: entry c is the first cell >= c of that column
	// that a ray must sample, vol+1 when the rest of the column is empty.
	nextActive []uint16

	tileCtr sync4.Counter
	nTiles  int
	ran     bool
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vol, img := sizes(cfg.Scale)
	tilesPerDim := img / tileSize
	in := &instance{
		threads: cfg.Threads,
		vol:     vol,
		img:     img,
		density: make([]float32, vol*vol*vol),
		zeros:   make([]float32, vol),
		image:   make([]float64, img*img),
		tileCtr: cfg.Kit.NewCounter(),
		nTiles:  tilesPerDim * tilesPerDim,
	}
	in.synthesizeVolume(cfg.Seed)
	in.buildZTable()
	in.buildEmptyCellMap()
	return in, nil
}

// blob is one Gaussian of the synthetic field: centre and width in
// normalized volume coordinates.
type blob struct{ x, y, z, w float64 }

const nBlobs = 6

// seedBlobs derives the blobs from the seed through a tiny LCG so the field
// is deterministic without pulling in math/rand state size.
func seedBlobs(seed int64) [nBlobs]blob {
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / float64(1<<53)
	}
	var blobs [nBlobs]blob
	for i := range blobs {
		blobs[i] = blob{0.2 + 0.6*next(), 0.2 + 0.6*next(), 0.2 + 0.6*next(), 0.05 + 0.1*next()}
	}
	return blobs
}

// synthesizeVolume fills the density grid with a deterministic field: a
// spherical shell at radius 0.4 (stand-in for the skull in the original
// dataset) plus seed-positioned Gaussian blobs (soft tissue),
// 0.7*exp(-|p-c|^2/w^2) each. A Gaussian is a product of one factor per
// axis, so each blob costs 3*vol exponentials instead of vol^3.
//
// The shell depends on the voxel only through its radius. Voxel i sits at
// (i+0.5)/vol, X/(2*vol) from the centre with X = 2i+1-vol, so the radius is
// sqrt(k)/(2*vol) with k = X^2+Y^2+Z^2 an integer below 3*(vol-1)^2+1, and
// the shell term is read from a table of that many entries (48 K exps at
// 128^3 instead of 2.1 M). When vol is a power of two that radius is the
// per-voxel formula's to the bit; at 192^3 it can differ in the last float64
// bit, and the float32 densities still come out identical.
func (in *instance) synthesizeVolume(seed int64) {
	v := in.vol
	blobs := seedBlobs(seed)
	coord := func(i int) float64 { return (float64(i) + 0.5) / float64(v) }
	// ex[i][b] is blob b's factor along x at voxel i, ey likewise; ez[b][i]
	// is blob-major, one run of v factors per blob for the z loop below.
	ex := make([][nBlobs]float64, v)
	ey := make([][nBlobs]float64, v)
	var ez [nBlobs][]float64
	for b := range ez {
		ez[b] = make([]float64, v)
	}
	// sq[i] is X^2 for voxel i.
	sq := make([]int, v)
	for i := 0; i < v; i++ {
		f := coord(i)
		for b, bl := range blobs {
			factor := func(centre float64) float64 {
				g := f - centre
				return math.Exp(-(g * g) / (bl.w * bl.w))
			}
			ex[i][b], ey[i][b], ez[b][i] = factor(bl.x), factor(bl.y), factor(bl.z)
		}
		sq[i] = (2*i + 1 - v) * (2*i + 1 - v)
	}
	shell := make([]float64, 3*(v-1)*(v-1)+1)
	for k := range shell {
		r := math.Sqrt(float64(k)) / float64(2*v)
		shell[k] = math.Exp(-((r - 0.4) * (r - 0.4)) / 0.002)
	}
	// One pass per column, with the column's six blob weights in registers
	// and the six factor runs read side by side, so neighbouring voxels'
	// sums overlap in the pipeline. Each voxel must still sum the shell
	// term and then blobs 0..5 in that order, the order the committed
	// image digests were taken with.
	ez0, ez1, ez2, ez3, ez4, ez5 := ez[0][:v], ez[1][:v], ez[2][:v], ez[3][:v], ez[4][:v], ez[5][:v]
	sqz := sq[:v]
	for y := 0; y < v; y++ {
		for x := 0; x < v; x++ {
			var w [nBlobs]float64
			for b := range w {
				w[b] = 0.7 * ex[x][b] * ey[y][b]
			}
			shellXY := shell[sq[x]+sq[y]:]
			col := in.column(x, y)[:v]
			for z, k := range sqz {
				d := shellXY[k]
				d += w[0] * ez0[z]
				d += w[1] * ez1[z]
				d += w[2] * ez2[z]
				d += w[3] * ez3[z]
				d += w[4] * ez4[z]
				d += w[5] * ez5[z]
				col[z] = float32(d)
			}
		}
	}
}

// column returns the vol densities at (x, y), or the zero column when
// (x, y) lies outside the volume.
func (in *instance) column(x, y int) []float32 {
	v := in.vol
	if x < 0 || y < 0 || x >= v || y >= v {
		return in.zeros
	}
	return in.density[(y*v+x)*v:][:v]
}

// buildZTable walks the z sequence once, by the accumulation every ray
// would repeat (at 192^3 the step is not a power of two, so the sequence is
// whatever the rounded additions make it).
func (in *instance) buildZTable() {
	v := in.vol
	step := 0.5 / float64(v)
	for tz := 0.0; tz < 1; tz += step {
		gz := tz*float64(v) - 0.5
		z0 := int(math.Floor(gz))
		in.zCell = append(in.zCell, int32(z0+1))
		in.zFrac = append(in.zFrac, float32(gz-float64(z0)))
	}
	in.firstStep = make([]int32, v+2)
	k := 0
	for c := range in.firstStep {
		for k < len(in.zCell) && int(in.zCell[k]) < c {
			k++
		}
		in.firstStep[c] = int32(k)
	}
}

// buildEmptyCellMap is the original's min-max octree, flattened: a cell
// whose eight corner voxels all lie below the transfer function's floor
// cannot contribute, because a trilinear sample is a convex combination of
// the corners. The float32 lerps can overshoot the largest corner by a few
// ulps (under 1e-7 at these magnitudes); emptyMargin is five orders of
// magnitude wider than that, so no sample the plain march would composite
// is ever skipped.
//
// It works on bitmasks, one bit per voxel or cell along z: a voxel column's
// mask marks the voxels at or above the floor less the margin, a cell
// column's is the OR of its four voxel columns' masks, and cell c is active
// iff bit c-1 or bit c of that is set. Each column's runs of entries are
// then filled from one scan of its set bits.
func (in *instance) buildEmptyCellMap() {
	v := in.vol
	n := v + 1
	words := (n + 63) / 64 // per mask: n cell bits, and the v voxel bits fit too
	// voxels[(y*v+x)*words:] is voxel column (x, y)'s mask.
	voxels := make([]uint64, v*v*words)
	for i := range v * v {
		m := voxels[i*words:][:words]
		for z, d := range in.density[i*v:][:v] {
			if float64(d) >= densityFloor-emptyMargin {
				m[z>>6] |= 1 << (z & 63)
			}
		}
	}
	// mask returns voxel column (x, y)'s mask, all clear outside the volume.
	none := make([]uint64, words)
	mask := func(x, y int) []uint64 {
		if x < 0 || y < 0 || x >= v || y >= v {
			return none
		}
		return voxels[(y*v+x)*words:][:words]
	}
	in.nextActive = make([]uint16, n*n*n)
	cells := make([]uint64, words)
	for cy := 0; cy < n; cy++ {
		for cx := 0; cx < n; cx++ {
			m00, m10 := mask(cx-1, cy-1), mask(cx, cy-1)
			m01, m11 := mask(cx-1, cy), mask(cx, cy)
			var carry uint64 // bit 63 of the previous word, shifted in
			for w := range cells {
				m := m00[w] | m10[w] | m01[w] | m11[w]
				cells[w] = m | m<<1 | carry
				carry = m >> 63
			}
			next := in.nextActive[(cy*n+cx)*n:][:n]
			c := 0
			for w, m := range cells {
				for ; m != 0; m &= m - 1 {
					a := w*64 + bits.TrailingZeros64(m)
					for ; c <= a; c++ {
						next[c] = uint16(a)
					}
				}
			}
			for ; c < n; c++ {
				next[c] = uint16(n)
			}
		}
	}
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("volrend: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, func(tid int) {
		for {
			t := in.tileCtr.Inc() - 1
			if t >= int64(in.nTiles) {
				return
			}
			in.renderTile(int(t), in.image)
		}
	})
	return nil
}

// renderTile composites every ray of tile t into img. A pixel row's rays
// that fall in the same cell column march together.
func (in *instance) renderTile(t int, img []float64) {
	v := in.vol
	tilesPerDim := in.img / tileSize
	ty := (t / tilesPerDim) * tileSize
	tx := (t % tilesPerDim) * tileSize
	var rays [packetSize]ray
	for y := ty; y < ty+tileSize; y++ {
		gy := (float64(y)+0.5)/float64(in.img)*float64(v) - 0.5
		y0 := int(math.Floor(gy))
		fy := float32(gy - float64(y0))
		row := img[y*in.img:][:in.img]
		n, x0 := 0, 0
		for x := tx; x < tx+tileSize; x++ {
			gx := (float64(x)+0.5)/float64(in.img)*float64(v) - 0.5
			cx := int(math.Floor(gx))
			if n > 0 && (cx != x0 || n == packetSize) {
				in.march(rays[:n], x0, y0, fy, row)
				n = 0
			}
			x0 = cx
			rays[n] = ray{px: int32(x), fx: float32(gx - float64(cx))}
			n++
		}
		in.march(rays[:n], x0, y0, fy, row)
	}
}

// packetSize is the most rays that march together: the pixels per voxel.
const packetSize = 4

// ray is one pixel's state in a packet: its column and x weight, the two
// slices of the cell its last sample fell in, and its compositing sums.
type ray struct {
	px                 int32
	fx                 float32
	lo, hi             float32
	intensity, opacity float64
}

func lerp(a, b, f float32) float32 { return a + (b-a)*f }

// march casts the orthographic rays of one cell column front to back and
// stores each one's intensity in row. The rays run along z, so a ray's x and
// y cell and weights are fixed, a sample is lerp(B(z0), B(z0+1), fz) with B
// the bilinear value of one z slice, and each B serves every step of the two
// cells that share the slice. The rays share the z sequence, the empty-cell
// skips and the four voxel columns, which are read once for all of them;
// each ray has its own x weight, slices, sums and early termination, and
// leaves the packet when it terminates.
func (in *instance) march(rays []ray, x0, y0 int, fy float32, row []float64) {
	v := in.vol
	c00, c10 := in.column(x0, y0), in.column(x0+1, y0)
	c01, c11 := in.column(x0, y0+1), in.column(x0+1, y0+1)
	next := in.nextActive[((y0+1)*(v+1)+x0+1)*(v+1):][:v+1]

	step := 0.5 / float64(v)
	live := len(rays)
	// cell is the cell the last sample fell in; before the volume both of
	// its slices are zero.
	cell := -1
	for k := 0; k < len(in.zCell) && live > 0; {
		c := int(in.zCell[k])
		if a := int(next[c]); a > c {
			// Cells c..a-1 are empty: go on at the first step in cell a.
			k = int(in.firstStep[a])
			continue
		}
		if c != cell {
			var l00, l10, l01, l11, h00, h10, h01, h11 float32
			if z := c - 1; c != cell+1 && z >= 0 && z < v {
				l00, l10, l01, l11 = c00[z], c10[z], c01[z], c11[z]
			}
			if z := c; z < v {
				h00, h10, h01, h11 = c00[z], c10[z], c01[z], c11[z]
			}
			for r := range rays[:live] {
				p := &rays[r]
				if c == cell+1 {
					p.lo = p.hi
				} else {
					p.lo = lerp(lerp(l00, l10, p.fx), lerp(l01, l11, p.fx), fy)
				}
				p.hi = lerp(lerp(h00, h10, p.fx), lerp(h01, h11, p.fx), fy)
			}
			cell = c
		}
		fz := in.zFrac[k]
		k++
		for r := 0; r < live; {
			p := &rays[r]
			d := float64(lerp(p.lo, p.hi, fz))
			// Transfer function: densities below a floor are
			// transparent, above it opacity and emission grow with
			// density.
			if d < densityFloor {
				r++
				continue
			}
			a := (d - densityFloor) * 0.9 * step * float64(v) / 4
			if a > 1 {
				a = 1
			}
			// The builtin min, not math.Min: that is an out-of-line
			// call per step on amd64.
			emit := 0.3 + 0.7*min(d, 1.5)/1.5
			p.intensity += (1 - p.opacity) * a * emit
			p.opacity += (1 - p.opacity) * a
			if p.opacity > opacityLimit {
				// Early termination: the ray leaves the packet.
				live--
				rays[r], rays[live] = rays[live], rays[r]
				continue
			}
			r++
		}
	}
	for _, p := range rays {
		row[p.px] = p.intensity
	}
}

// Verify implements core.Instance: a sequential re-render must match the
// parallel image exactly, and the image must show actual structure (the
// synthetic shell guarantees non-trivial content). The re-render uses the
// same renderTile, so this checks that the image does not depend on which
// worker claimed which tile (a lost or torn tile fetch fails here), not the
// kernel: the kernel's image is held to the committed digests by
// TestResultDigests in package all.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("volrend: verify before run")
	}
	ref := make([]float64, len(in.image))
	for t := 0; t < in.nTiles; t++ {
		in.renderTile(t, ref)
	}
	var sum float64
	for i := range ref {
		if in.image[i] != ref[i] {
			return fmt.Errorf("volrend: pixel %d: got %g want %g", i, in.image[i], ref[i])
		}
		sum += ref[i]
	}
	if sum == 0 {
		return fmt.Errorf("volrend: rendered image is empty")
	}
	return nil
}

// WriteResult implements core.ResultWriter: the image.
func (in *instance) WriteResult(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, in.image)
}

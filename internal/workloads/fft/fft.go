// Package fft implements the FFT kernel of the suite: a 1-D complex FFT of
// n = 2^m points computed with the six-step radix-sqrt(n) algorithm on a
// sqrt(n) x sqrt(n) matrix, exactly as in Splash-2/3/4.
//
// The parallel structure is the original one: threads own contiguous row
// blocks; the six steps (transpose, row FFTs, twiddle scaling, transpose,
// row FFTs, transpose) are separated by barriers; and a global checksum of
// the result is reduced across threads at the end of the timed region. In
// Splash-3 the barriers are mutex/condvar constructs and the checksum is a
// lock-protected double; in Splash-4 they are an atomic barrier and a CAS
// accumulation — here both come from the configured sync4.Kit.
//
// The non-synchronizing work is fft.c's too: the transposes move
// 16 x 16 tiles (its Transpose), and the row FFTs and the twiddle step read
// precomputed roots of unity (its umain and umain2) instead of calling sin
// and cos. fft.c's umain2 has n entries; here the twiddle is factored into
// two per-instance tables of sqrt(n) entries each, which Prepare fills with
// 2*sqrt(n) sincos calls instead of n.
//
// Scale mapping and memory (the two n-point matrices; the root tables add
// 32*sqrt(n) bytes): test m=12 (4K points, 128 KiB), small m=16 (64K, the
// Splash default input, 2 MiB), default m=20 (1M, 32 MiB), large m=22 (4M,
// 128 MiB). No copy of the input is kept: Verify regenerates it from the
// seed.
package fft

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sync4"
)

// Benchmark is the FFT kernel descriptor.
type Benchmark struct{}

// New returns the FFT benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "fft" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "1-D complex FFT, six-step radix-sqrt(n) algorithm (kernel)"
}

// logN maps a scale to m, with n = 2^m total points. m must be even so the
// matrix is square.
func logN(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 12
	case core.ScaleSmall:
		return 16
	case core.ScaleDefault:
		return 20
	case core.ScaleLarge:
		return 22
	default:
		return 16
	}
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := logN(cfg.Scale)
	n := 1 << m
	rootN := 1 << (m / 2)
	if cfg.Threads > rootN {
		return nil, fmt.Errorf("fft: threads (%d) exceed matrix rows (%d)", cfg.Threads, rootN)
	}

	inst := &instance{
		threads:  cfg.Threads,
		n:        n,
		rootN:    rootN,
		logRootN: m / 2,
		seed:     cfg.Seed,
		x:        make([]complex128, n),
		trans:    make([]complex128, n),
		roots:    unitRoots(rootN, rootN),
		fine:     unitRoots(rootN, n),
		barrier:  cfg.Kit.NewBarrier(cfg.Threads),
		chksum:   cfg.Kit.NewAccumulator(),
	}
	input(inst.x, cfg.Seed)
	return inst, nil
}

// input fills x with the seed's points, uniform in [-0.5, 0.5) in both parts.
// Verify regenerates them rather than keeping a copy. The draws are
// rand.New(rand.NewSource(seed)).Float64's stream, taken from the source
// directly.
func input(x []complex128, seed int64) {
	src := rand.NewSource(seed)
	// uniform is rand.Rand.Float64's definition, resampling the one value
	// that rounds up to 1.
	uniform := func() float64 {
		for {
			if f := float64(src.Int63()) / (1 << 63); f != 1 {
				return f
			}
		}
	}
	for i := range x {
		x[i] = complex(uniform()-0.5, uniform()-0.5)
	}
}

// unitRoots returns e^(-2*pi*i*j/order) for j in [0, count).
func unitRoots(count, order int) []complex128 {
	w := make([]complex128, count)
	for j := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(order))
		w[j] = complex(c, s)
	}
	return w
}

type instance struct {
	threads  int
	n        int
	rootN    int
	logRootN int
	seed     int64        // the input is regenerated from it by Verify
	x        []complex128 // rootN x rootN row-major working matrix
	trans    []complex128 // transpose scratch
	// roots[j] = e^(-2*pi*i*j/rootN) are the twiddles of every row FFT
	// (fft.c's umain) and fine[j] = e^(-2*pi*i*j/n); step 3's w^k, k < n, is
	// roots[k/rootN] * fine[k%rootN], so two rootN tables stand in for
	// fft.c's n-entry umain2.
	roots   []complex128
	fine    []complex128
	barrier sync4.Barrier
	chksum  sync4.Accumulator
	ran     bool
}

// Run implements core.Instance: the six-step FFT, forward direction.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("fft: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	return nil
}

func (in *instance) worker(tid int) {
	lo, hi := core.BlockRange(tid, in.threads, in.rootN)

	// Step 1: transpose x into trans.
	in.transposeRows(in.x, in.trans, lo, hi)
	in.barrier.Wait()

	// Step 2: FFT each owned row of trans.
	for r := lo; r < hi; r++ {
		fft1D(in.trans[r*in.rootN:(r+1)*in.rootN], in.roots)
	}
	// Step 3: twiddle scaling. trans row r holds original column r, so
	// element (r, c) corresponds to matrix position (row c, col r) of the
	// n-point decomposition and is scaled by w^(r*c).
	mask := in.rootN - 1
	for r := lo; r < hi; r++ {
		row := in.trans[r*in.rootN : (r+1)*in.rootN]
		for c := range row {
			k := r * c
			row[c] *= in.roots[k>>in.logRootN] * in.fine[k&mask]
		}
	}
	in.barrier.Wait()

	// Step 4: transpose trans back into x.
	in.transposeRows(in.trans, in.x, lo, hi)
	in.barrier.Wait()

	// Step 5: FFT each owned row of x.
	for r := lo; r < hi; r++ {
		fft1D(in.x[r*in.rootN:(r+1)*in.rootN], in.roots)
	}
	in.barrier.Wait()

	// Step 6: final transpose into trans; trans holds the DFT in natural
	// order.
	in.transposeRows(in.x, in.trans, lo, hi)
	in.barrier.Wait()

	// Checksum reduction across threads (Splash-4 turns this into an
	// atomic accumulate; Splash-3 takes a lock).
	var local float64
	for r := lo; r < hi; r++ {
		row := in.trans[r*in.rootN : (r+1)*in.rootN]
		for _, v := range row {
			local += real(v) + imag(v)
		}
	}
	in.chksum.Add(local)
}

// tile is the side of the square blocks transposeRows copies: a 16 x 16
// block reads 16 source rows and writes 16 destination rows, 4 KiB each way,
// which stay in L1 and in the TLB while the block is copied.
const tile = 16

// transposeRows writes rows [lo,hi) of src into columns [lo,hi) of dst, tile
// by tile, as fft.c's Transpose does: a row-at-a-time transpose writes one
// element per destination row, a rootN*16-byte stride, and misses on nearly
// every store. Both matrices are rootN x rootN row-major.
func (in *instance) transposeRows(src, dst []complex128, lo, hi int) {
	n := in.rootN
	for r0 := lo; r0 < hi; r0 += tile {
		r1 := min(r0+tile, hi)
		for c0 := 0; c0 < n; c0 += tile {
			c1 := min(c0+tile, n)
			for r := r0; r < r1; r++ {
				for c, v := range src[r*n+c0 : r*n+c1] {
					dst[(c0+c)*n+r] = v
				}
			}
		}
	}
}

// fft1D performs an in-place iterative radix-2 Cooley-Tukey FFT. roots[j]
// is e^(-2*pi*i*j/len(a)), at least for j < len(a)/2.
func fft1D(a, roots []complex128) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		stride := n / length // w_length^j = w_n^(j*stride)
		for i := 0; i < n; i += length {
			lo, hi := a[i:i+half], a[i+half:i+length]
			for j := range lo {
				u := lo[j]
				v := hi[j] * roots[j*stride]
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}

// Verify implements core.Instance: it recomputes the transform with an
// independent sequential recursive FFT and compares, and cross-checks the
// reduced checksum against a direct sum of the parallel result.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("fft: verify before run")
	}
	ref := make([]complex128, in.n)
	input(ref, in.seed)
	recursiveFFT(ref)

	var maxMag float64
	for _, v := range ref {
		if m := cmplx.Abs(v); m > maxMag {
			maxMag = m
		}
	}
	tol := tolerance(in.n, maxMag)
	for i := range ref {
		if d := cmplx.Abs(in.trans[i] - ref[i]); d > tol {
			return fmt.Errorf("fft: element %d differs: got %v want %v (|diff|=%g, tol=%g)",
				i, in.trans[i], ref[i], d, tol)
		}
	}

	var want float64
	for _, v := range in.trans {
		want += real(v) + imag(v)
	}
	got := in.chksum.Load()
	sumTol := 1e-6 * math.Max(math.Abs(want), 1)
	if math.Abs(got-want) > sumTol {
		return fmt.Errorf("fft: checksum mismatch: reduced %g, direct %g", got, want)
	}
	return nil
}

// WriteResult implements core.ResultWriter: the transform, each point's real
// then imaginary part. The checksum is left out: from three threads its
// partial sums arrive in schedule order.
func (in *instance) WriteResult(w io.Writer) error {
	return binary.Write(w, binary.LittleEndian, in.trans)
}

// tolerance is the largest |kernel - oracle| Verify accepts on an n-point
// transform whose largest output magnitude is maxMag: 8 eps log2(n) maxMag,
// following the log2(n) growth of a radix-2 FFT's rounding error. Measured
// at m = 12, 16 and 20 on seeds 1-3, the kernel's worst error is 0.14-0.17
// eps log2(n) maxMag (about 50x headroom), and a kernel whose twiddles are
// a running product reaches 4.8 at m = 20. Roots rounded to float32 miss
// the bound by a factor of three million.
func tolerance(n int, maxMag float64) float64 {
	const eps = 0x1p-52
	return 8 * eps * math.Log2(float64(n)) * math.Max(maxMag, 1)
}

// recursiveFFT is an out-of-band oracle: a different algorithm (recursive
// decimation-in-time) so a bug in fft1D cannot hide in Verify.
func recursiveFFT(a []complex128) {
	n := len(a)
	if n == 1 {
		return
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i] = a[2*i]
		odd[i] = a[2*i+1]
	}
	recursiveFFT(even)
	recursiveFFT(odd)
	for k := 0; k < n/2; k++ {
		t := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n))) * odd[k]
		a[k] = even[k] + t
		a[k+n/2] = even[k] - t
	}
}

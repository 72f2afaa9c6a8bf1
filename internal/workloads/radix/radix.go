// Package radix implements the RADIX kernel: a parallel least-significant-
// digit radix sort of integer keys with a 1024-way radix, following the
// Splash-2 algorithm: per-pass local histograms, a cross-thread prefix
// computation, and a stable permutation into a scratch array.
//
// Synchronization per pass: one barrier after local histogramming, one after
// the digit-total prefix, and one after the permutation — plus a global
// max-key reduction before the first pass (a MinMax construct) that decides
// the number of passes. RADIX stresses barriers and the reduction; Splash-4
// replaces the lock-protected ranking with atomics and the paper reports it
// among the biggest winners.
//
// Scale mapping (keys): test 32K, small 256K, default 1M (the Splash default
// input), large 4M. Keys are drawn uniformly from [0, 2^27).
//
// Memory: the keys and the permutation scratch, 16 bytes per key (16 MiB at
// default scale). No copy of the input is kept: Verify regenerates it from
// the seed through fillKeys, as Prepare drew it, and sorts that.
package radix

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/sync4"
)

const (
	logRadix = 10
	radix    = 1 << logRadix
	keyBits  = 27
)

// Benchmark is the RADIX kernel descriptor.
type Benchmark struct{}

// New returns the RADIX benchmark.
func New() Benchmark { return Benchmark{} }

// Name implements core.Benchmark.
func (Benchmark) Name() string { return "radix" }

// Description implements core.Benchmark.
func (Benchmark) Description() string {
	return "parallel integer radix sort, 1024-way digits (kernel)"
}

func numKeys(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 32 << 10
	case core.ScaleSmall:
		return 256 << 10
	case core.ScaleDefault:
		return 1 << 20
	case core.ScaleLarge:
		return 4 << 20
	default:
		return 1 << 20
	}
}

// Prepare implements core.Benchmark.
func (Benchmark) Prepare(cfg core.Config) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := numKeys(cfg.Scale)
	if cfg.Threads > n {
		return nil, fmt.Errorf("radix: threads (%d) exceed keys (%d)", cfg.Threads, n)
	}
	inst := &instance{
		threads: cfg.Threads,
		n:       n,
		seed:    cfg.Seed,
		keys:    make([]int64, n),
		scratch: make([]int64, n),
		hist:    make([][]int64, cfg.Threads),
		prefix:  make([]int64, radix+1),
		barrier: cfg.Kit.NewBarrier(cfg.Threads),
		maxKey:  cfg.Kit.NewMinMax(),
	}
	for t := range inst.hist {
		inst.hist[t] = make([]int64, radix)
	}
	maxPasses := (keyBits + logRadix - 1) / logRadix
	inst.prefixDone = make([]sync4.Flag, maxPasses)
	for p := range inst.prefixDone {
		inst.prefixDone[p] = cfg.Kit.NewFlag()
	}
	fillKeys(inst.keys, cfg.Seed)
	return inst, nil
}

// fillKeys draws the seed's keys into keys. Prepare and Verify share it, so
// Verify sorts exactly the input Run was given. The keys are
// rand.New(rand.NewSource(seed)).Int63n(1<<keyBits)'s stream, taken from the
// source directly: for a power of two, Int63n is Int63 masked.
func fillKeys(keys []int64, seed int64) {
	src := rand.NewSource(seed)
	for i := range keys {
		keys[i] = src.Int63() & (1<<keyBits - 1)
	}
}

type instance struct {
	threads    int
	n          int
	seed       int64 // the input is regenerated from it by Verify
	keys       []int64
	scratch    []int64
	hist       [][]int64 // per-thread digit histogram for the current pass
	prefix     []int64   // global exclusive prefix over digit totals
	barrier    sync4.Barrier
	maxKey     sync4.MinMax
	prefixDone []sync4.Flag // per-pass "prefix ready" signal (SETPAUSE)
	passes     int
	ran        bool
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("radix: instance reused")
	}
	in.ran = true
	core.Parallel(in.threads, in.worker)
	// After an odd number of passes the sorted data lives in scratch;
	// normalize so Verify always looks at keys. The swap is pointer-only.
	if in.passes%2 == 1 {
		in.keys, in.scratch = in.scratch, in.keys
	}
	return nil
}

func (in *instance) worker(tid int) {
	lo, hi := core.BlockRange(tid, in.threads, in.n)

	// Max-key reduction decides how many digit passes are needed.
	localMax := int64(0)
	for _, k := range in.keys[lo:hi] {
		if k > localMax {
			localMax = k
		}
	}
	in.maxKey.Update(float64(localMax))
	in.barrier.Wait()

	max := int64(in.maxKey.Max())
	passes := 1
	for v := max >> logRadix; v > 0; v >>= logRadix {
		passes++
	}
	if tid == 0 {
		in.passes = passes
	}

	src, dst := in.keys, in.scratch
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * logRadix)

		// Local histogram of the owned block.
		h := in.hist[tid]
		for d := range h {
			h[d] = 0
		}
		for _, k := range src[lo:hi] {
			h[(k>>shift)&(radix-1)]++
		}
		in.barrier.Wait()

		// Digit totals and exclusive prefix. The 1024-entry scan is
		// cheap, so thread 0 performs it and publishes a "prefix
		// ready" flag — the original's SETPAUSE/WAITPAUSE pattern
		// (a mutex+condvar event in Splash-3, an atomic flag with
		// spinning in Splash-4).
		if tid == 0 {
			var running int64
			for d := 0; d < radix; d++ {
				in.prefix[d] = running
				for t := 0; t < in.threads; t++ {
					running += in.hist[t][d]
				}
			}
			in.prefix[radix] = running
			in.prefixDone[pass].Set()
		} else {
			in.prefixDone[pass].Wait()
		}

		// Per-thread write offsets: global start of the digit plus
		// the space consumed by lower-numbered threads. Writing the
		// owned block in order keeps the sort stable.
		var offs [radix]int64
		for d := 0; d < radix; d++ {
			off := in.prefix[d]
			for t := 0; t < tid; t++ {
				off += in.hist[t][d]
			}
			offs[d] = off
		}
		for _, k := range src[lo:hi] {
			d := (k >> shift) & (radix - 1)
			dst[offs[d]] = k
			offs[d]++
		}
		in.barrier.Wait()

		src, dst = dst, src
	}
}

// Verify implements core.Instance: the output must equal the independently
// sorted input, regenerated from the seed, exactly (which also proves it is
// a permutation).
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("radix: verify before run")
	}
	want := make([]int64, in.n)
	fillKeys(want, in.seed)
	slices.Sort(want)
	for i := range want {
		if in.keys[i] != want[i] {
			return fmt.Errorf("radix: position %d: got %d want %d", i, in.keys[i], want[i])
		}
	}
	return nil
}

// Package core defines the skeleton of the benchmark suite: the Benchmark
// and Instance interfaces every workload implements, the run configuration,
// and the fork-join parallel runner that stands in for the original
// CREATE/WAIT_FOR_END pthread macros.
package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/sync4"
)

// Scale selects one of a workload's canonical input sizes. The original
// suite ships "default" inputs sized for 1995 machines; each workload here
// maps the scales to concrete parameters in its documentation.
type Scale int

const (
	// ScaleTest is a tiny input for unit tests: correctness-meaningful
	// but sub-second single-threaded.
	ScaleTest Scale = iota
	// ScaleSmall is a quick characterization input.
	ScaleSmall
	// ScaleDefault mirrors the relative magnitude of the suite's default
	// input sets.
	ScaleDefault
	// ScaleLarge stresses scalability studies at high thread counts.
	ScaleLarge
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScaleDefault:
		return "default"
	case ScaleLarge:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale is the inverse of Scale.String for the four named scales.
func ParseScale(s string) (Scale, error) {
	for sc := ScaleTest; sc <= ScaleLarge; sc++ {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want test, small, default or large)", s)
}

// Config carries everything a workload needs to set itself up. The same
// Config is used for a classic and a lockfree run; only Kit differs.
type Config struct {
	// Threads is the number of workers that will execute the parallel
	// region. Must be >= 1.
	Threads int
	// Kit supplies every synchronization construct the workload uses.
	Kit sync4.Kit
	// Scale selects the input size. Must be one of the four named scales.
	Scale Scale
	// Seed makes input generation deterministic. Two Prepare calls with
	// equal Config produce identical inputs regardless of Kit, so
	// classic and lockfree runs are directly comparable. ocean,
	// ocean-contiguous and radiosity ignore it: their inputs are fixed by
	// the scale alone.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("core: config needs Threads >= 1, got %d", c.Threads)
	}
	if c.Kit == nil {
		return fmt.Errorf("core: config needs a non-nil Kit")
	}
	if c.Scale < ScaleTest || c.Scale > ScaleLarge {
		return fmt.Errorf("core: config needs a Scale from test to large, got %v", c.Scale)
	}
	return nil
}

// Benchmark describes one workload of the suite. Implementations are
// stateless descriptors; all per-run state lives in the Instance returned by
// Prepare.
type Benchmark interface {
	// Name returns the canonical suite name (e.g. "fft", "water-nsquared").
	Name() string
	// Description is a one-line summary for suite listings.
	Description() string
	// Prepare allocates inputs and synchronization state for one run.
	// It corresponds to the untimed initialization phase of the original
	// benchmarks.
	Prepare(cfg Config) (Instance, error)
}

// Instance is one prepared run. Run executes the timed parallel region
// (the original suite's "region of interest") and must be called exactly
// once; Verify checks the computation's output afterwards.
type Instance interface {
	Run() error
	Verify() error
}

// ResultWriter is implemented by an Instance that can write its result
// state: after Run, WriteResult writes the values the run computed to w as
// little-endian 64-bit words (float64 bits, or int64s for integer results),
// so that two runs computed the same thing iff they wrote the same bytes.
// The suite's digest test hashes these bytes.
type ResultWriter interface {
	WriteResult(w io.Writer) error
}

// workerHook, when set, runs at the start of every Parallel worker and its
// returned cleanup when the worker finishes. See SetWorkerHook.
var workerHook atomic.Pointer[func(tid int) func()]

// SetWorkerHook installs h to run on every Parallel worker: h(tid) is
// called as the worker starts and the function it returns when the worker
// ends. The synchronization tracer uses this seam to pin workers to OS
// threads (trace.PinWorker) so trace lanes map 1:1 onto logical threads.
// Passing nil clears the hook. SetWorkerHook must not be called while a
// Parallel region is running; the harness brackets whole runs with it.
func SetWorkerHook(h func(tid int) func()) {
	if h == nil {
		workerHook.Store(nil)
		return
	}
	workerHook.Store(&h)
}

// Parallel runs body on threads workers, passing each its thread id in
// [0, threads), and returns when all have finished. It is the Go analogue of
// the suite's CREATE/WAIT_FOR_END macros. Worker zero runs on the calling
// goroutine so that a Threads=1 run has no scheduling overhead at all.
func Parallel(threads int, body func(tid int)) {
	run := body
	if hp := workerHook.Load(); hp != nil {
		h := *hp
		run = func(tid int) {
			defer h(tid)()
			body(tid)
		}
	}
	if threads == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads - 1)
	for tid := 1; tid < threads; tid++ {
		go func(tid int) {
			defer wg.Done()
			run(tid)
		}(tid)
	}
	run(0)
	wg.Wait()
}

// BlockRange statically partitions n items among threads workers and
// returns worker tid's half-open range [lo, hi). Leftover items go to the
// lowest-numbered workers, so ranges differ in size by at most one.
func BlockRange(tid, threads, n int) (lo, hi int) {
	chunk := n / threads
	rem := n % threads
	lo = tid*chunk + min(tid, rem)
	hi = lo + chunk
	if tid < rem {
		hi++
	}
	return lo, hi
}

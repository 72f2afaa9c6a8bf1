package core_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sync4/classic"
)

func TestParallelRunsEveryTid(t *testing.T) {
	for _, threads := range []int{1, 2, 7, 32} {
		var seen [64]atomic.Bool
		var count atomic.Int64
		core.Parallel(threads, func(tid int) {
			if tid < 0 || tid >= threads {
				t.Errorf("tid %d out of range [0,%d)", tid, threads)
				return
			}
			if seen[tid].Swap(true) {
				t.Errorf("tid %d ran twice", tid)
			}
			count.Add(1)
		})
		if got := count.Load(); got != int64(threads) {
			t.Fatalf("threads=%d: %d bodies ran", threads, got)
		}
	}
}

func TestParallelWaitsForAll(t *testing.T) {
	var done atomic.Int64
	core.Parallel(16, func(tid int) {
		// Uneven work: stragglers must still be awaited.
		for i := 0; i < tid*1000; i++ {
			_ = i * i
		}
		done.Add(1)
	})
	if got := done.Load(); got != 16 {
		t.Fatalf("Parallel returned before all workers finished: %d/16", got)
	}
}

func TestBlockRangePartitionProperties(t *testing.T) {
	// Property: for any (threads, n), the ranges tile [0, n) exactly and
	// differ in size by at most one.
	f := func(threadsRaw uint8, nRaw uint16) bool {
		threads := int(threadsRaw)%64 + 1
		n := int(nRaw) % 5000
		covered := 0
		minSize, maxSize := 1<<30, -1
		for tid := 0; tid < threads; tid++ {
			lo, hi := core.BlockRange(tid, threads, n)
			if lo > hi {
				return false
			}
			if tid == 0 && lo != 0 {
				return false
			}
			if tid == threads-1 && hi != n {
				return false
			}
			if tid > 0 {
				prevLo, prevHi := core.BlockRange(tid-1, threads, n)
				_ = prevLo
				if lo != prevHi {
					return false
				}
			}
			size := hi - lo
			covered += size
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		return covered == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	kit := classic.New()
	cases := []struct {
		cfg  core.Config
		ok   bool
		name string
	}{
		{core.Config{Threads: 1, Kit: kit}, true, "minimal"},
		{core.Config{Threads: 64, Kit: kit, Scale: core.ScaleLarge, Seed: -1}, true, "full"},
		{core.Config{Threads: 0, Kit: kit}, false, "zero threads"},
		{core.Config{Threads: -3, Kit: kit}, false, "negative threads"},
		{core.Config{Threads: 4}, false, "nil kit"},
		{core.Config{Threads: 1, Kit: kit, Scale: core.ScaleLarge + 1}, false, "scale past large"},
		{core.Config{Threads: 1, Kit: kit, Scale: -1}, false, "negative scale"},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestScaleString(t *testing.T) {
	cases := map[core.Scale]string{
		core.ScaleTest:    "test",
		core.ScaleSmall:   "small",
		core.ScaleDefault: "default",
		core.ScaleLarge:   "large",
		core.Scale(99):    "Scale(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Scale(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestParseScaleRoundTrip(t *testing.T) {
	for _, s := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault, core.ScaleLarge} {
		if got, err := core.ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "Test", "galactic", "Scale(99)", " small"} {
		if got, err := core.ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) = %v, want an error", bad, got)
		}
	}
}

func TestSetWorkerHook(t *testing.T) {
	defer core.SetWorkerHook(nil)

	var started, cleaned atomic.Int64
	var seen [8]atomic.Bool
	core.SetWorkerHook(func(tid int) func() {
		started.Add(1)
		return func() { cleaned.Add(1) }
	})
	core.Parallel(4, func(tid int) { seen[tid].Store(true) })
	if started.Load() != 4 || cleaned.Load() != 4 {
		t.Fatalf("hook ran %d times, cleanup %d, want 4 each", started.Load(), cleaned.Load())
	}
	for tid := 0; tid < 4; tid++ {
		if !seen[tid].Load() {
			t.Fatalf("worker %d did not run under the hook", tid)
		}
	}

	// The threads==1 shortcut must honor the hook too.
	started.Store(0)
	cleaned.Store(0)
	core.Parallel(1, func(tid int) {})
	if started.Load() != 1 || cleaned.Load() != 1 {
		t.Fatalf("single-thread hook ran %d/%d times, want 1/1", started.Load(), cleaned.Load())
	}

	// Clearing the hook stops the calls.
	core.SetWorkerHook(nil)
	started.Store(0)
	core.Parallel(2, func(tid int) {})
	if started.Load() != 0 {
		t.Fatalf("cleared hook still ran %d times", started.Load())
	}
}

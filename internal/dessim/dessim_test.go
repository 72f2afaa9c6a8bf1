package dessim_test

import (
	"fmt"
	"testing"
	"time"

	"testing/quick"

	"repro/internal/dessim"
	"repro/internal/sync4"
)

func machine() dessim.Machine { return dessim.IceLakeLike() }

func TestComputeOnlyMakespanIsMaxThread(t *testing.T) {
	tr := dessim.Trace{
		{{Kind: dessim.Compute, Dur: 10 * time.Millisecond}},
		{{Kind: dessim.Compute, Dur: 30 * time.Millisecond}},
		{{Kind: dessim.Compute, Dur: 20 * time.Millisecond}},
	}
	res, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 30*time.Millisecond {
		t.Fatalf("makespan = %v, want 30ms", res.Makespan)
	}
	if res.SyncTime != 0 {
		t.Fatalf("sync time %v on a compute-only trace", res.SyncTime)
	}
	if res.ComputeTime != 60*time.Millisecond {
		t.Fatalf("compute time %v, want 60ms", res.ComputeTime)
	}
}

func TestSharedCellSerializes(t *testing.T) {
	// Two threads hammering one cell must take ~2x the cycles of one
	// thread doing half the work alone, not run in parallel.
	ops := 1000
	mk := func(threads int) dessim.Trace {
		tr := make(dessim.Trace, threads)
		for th := 0; th < threads; th++ {
			for i := 0; i < ops; i++ {
				tr[th] = append(tr[th], dessim.Event{Kind: dessim.RMW, Obj: 0})
			}
		}
		return tr
	}
	solo, err := dessim.Simulate(mk(1), machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	duo, err := dessim.Simulate(mk(2), machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if duo.Makespan < solo.Makespan {
		t.Fatalf("two contending threads (%v) finished before one alone (%v)", duo.Makespan, solo.Makespan)
	}
	// Disjoint cells, by contrast, run in parallel: same makespan as one
	// thread (modulo nothing, they never interact).
	tr := dessim.Trace{nil, nil}
	for i := 0; i < ops; i++ {
		tr[0] = append(tr[0], dessim.Event{Kind: dessim.RMW, Obj: 0})
		tr[1] = append(tr[1], dessim.Event{Kind: dessim.RMW, Obj: 1})
	}
	par, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if par.Makespan != solo.Makespan {
		t.Fatalf("disjoint cells: makespan %v, want solo %v", par.Makespan, solo.Makespan)
	}
}

func TestBarrierAlignsThreads(t *testing.T) {
	tr := dessim.Trace{
		{
			{Kind: dessim.Compute, Dur: time.Millisecond},
			{Kind: dessim.Barrier, Obj: 0},
			{Kind: dessim.Compute, Dur: time.Millisecond},
		},
		{
			{Kind: dessim.Compute, Dur: 10 * time.Millisecond},
			{Kind: dessim.Barrier, Obj: 0},
			{Kind: dessim.Compute, Dur: time.Millisecond},
		},
	}
	res, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	// Both threads leave the barrier at ~10ms; total ~11ms, not 2ms.
	if res.Makespan < 11*time.Millisecond {
		t.Fatalf("makespan %v: barrier did not hold the fast thread", res.Makespan)
	}
	if res.Makespan > 12*time.Millisecond {
		t.Fatalf("makespan %v: barrier cost implausibly high", res.Makespan)
	}
}

func TestClassicBarrierWakeupChainGrowsWithThreads(t *testing.T) {
	m := machine()
	episode := func(kit string, threads int) time.Duration {
		tr := make(dessim.Trace, threads)
		for th := 0; th < threads; th++ {
			tr[th] = []dessim.Event{{Kind: dessim.Barrier, Obj: 0}}
		}
		res, err := dessim.Simulate(tr, m, kit)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	c8, c32 := episode("classic", 8), episode("classic", 32)
	l8, l32 := episode("lockfree", 8), episode("lockfree", 32)
	if c32 <= c8 {
		t.Fatalf("classic barrier episode did not grow with threads: %v vs %v", c8, c32)
	}
	if l32 != l8 {
		t.Fatalf("lockfree barrier episode should be thread-count independent: %v vs %v", l8, l32)
	}
	if c32 <= l32 {
		t.Fatalf("classic episode (%v) not slower than lockfree (%v) at 32 threads", c32, l32)
	}
}

func TestFlagSetReleasesWaiter(t *testing.T) {
	tr := dessim.Trace{
		{
			{Kind: dessim.Compute, Dur: 5 * time.Millisecond},
			{Kind: dessim.FlagSet, Obj: 7},
		},
		{
			{Kind: dessim.FlagWait, Obj: 7},
			{Kind: dessim.Compute, Dur: time.Millisecond},
		},
	}
	res, err := dessim.Simulate(tr, machine(), "classic")
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 6*time.Millisecond {
		t.Fatalf("makespan %v: waiter ran before the flag was set", res.Makespan)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Thread 0 waits on a flag nobody sets.
	tr := dessim.Trace{{{Kind: dessim.FlagWait, Obj: 1}}}
	if _, err := dessim.Simulate(tr, machine(), "classic"); err == nil {
		t.Fatal("deadlock not detected for an unset flag")
	}
	// Mismatched barrier: thread 0 waits twice, thread 1 once.
	tr = dessim.Trace{
		{{Kind: dessim.Barrier, Obj: 0}, {Kind: dessim.Barrier, Obj: 0}},
		{{Kind: dessim.Barrier, Obj: 0}},
	}
	if _, err := dessim.Simulate(tr, machine(), "classic"); err == nil {
		t.Fatal("deadlock not detected for mismatched barrier counts")
	}
}

func TestPhasedTraceClassicSlowerThanLockfree(t *testing.T) {
	tr := dessim.PhasedTrace(16, 100, 50*time.Microsecond, 8, 0.1)
	rc, err := dessim.Simulate(tr, machine(), "classic")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Makespan >= rc.Makespan {
		t.Fatalf("lockfree makespan %v >= classic %v on a barrier-phased trace", rl.Makespan, rc.Makespan)
	}
}

func TestTaskLoopContendedCounter(t *testing.T) {
	tr := dessim.TaskLoopTrace(8, 800, 20*time.Microsecond)
	rc, err := dessim.Simulate(tr, machine(), "classic")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Makespan >= rc.Makespan {
		t.Fatalf("lockfree %v >= classic %v on a task-counter trace", rl.Makespan, rc.Makespan)
	}
}

func TestMergeTraceCollisionsCost(t *testing.T) {
	// Spread-out cells must beat everyone hammering one cell.
	wide := dessim.MergeTrace(8, 3, 100, 800, 100*time.Microsecond)
	hot := dessim.MergeTrace(8, 3, 100, 1, 100*time.Microsecond)
	rw, err := dessim.Simulate(wide, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := dessim.Simulate(hot, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if rh.Makespan <= rw.Makespan {
		t.Fatalf("hot-cell makespan %v not worse than spread cells %v", rh.Makespan, rw.Makespan)
	}
}

// TestSimulationInvariantsQuick property-checks random well-formed phased
// traces: simulation never errors, makespan is at least the longest
// thread's compute, classic is never cheaper than lockfree on the same
// trace, and compute accounting is exact.
func TestSimulationInvariantsQuick(t *testing.T) {
	m := machine()
	f := func(threadsRaw, phasesRaw uint8, computeRaw uint16, rmwRaw uint8, skewRaw uint8) bool {
		threads := int(threadsRaw)%16 + 1
		phases := int(phasesRaw)%20 + 1
		compute := time.Duration(computeRaw) * time.Microsecond
		rmw := int(rmwRaw) % 32
		skew := float64(skewRaw%100) / 100
		tr := dessim.PhasedTrace(threads, phases, compute, rmw, skew)

		rc, err := dessim.Simulate(tr, m, "classic")
		if err != nil {
			return false
		}
		rl, err := dessim.Simulate(tr, m, "lockfree")
		if err != nil {
			return false
		}
		// The slowest thread computes compute*(1+skew*(t-1)/t) per
		// phase; makespan must cover at least its total compute.
		slowest := time.Duration(float64(compute) * (1 + skew*float64(threads-1)/float64(threads)))
		minSpan := time.Duration(phases) * slowest
		if rl.Makespan < minSpan || rc.Makespan < minSpan {
			return false
		}
		if rc.Makespan < rl.Makespan {
			return false
		}
		return rc.ComputeTime == rl.ComputeTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromSnapshotMatchesCensusShape(t *testing.T) {
	s := sync4.Snapshot{
		BarrierWaits: 8 * 50, // 50 episodes at 8 threads
		CounterOps:   8000,
		LockAcquires: 800,
	}
	tr := dessim.FromSnapshot(s, 8, 80*time.Millisecond, 4)
	if len(tr) != 8 {
		t.Fatalf("trace has %d threads, want 8", len(tr))
	}
	var barriers, rmws, locks int
	for _, evs := range tr {
		for _, ev := range evs {
			switch ev.Kind {
			case dessim.Barrier:
				barriers++
			case dessim.RMW:
				rmws++
			case dessim.Lock:
				locks++
			}
		}
	}
	if barriers != 400 {
		t.Errorf("synthesized %d barrier waits, want 400", barriers)
	}
	if rmws != 8000 {
		t.Errorf("synthesized %d RMW ops, want 8000", rmws)
	}
	if locks != 800 {
		t.Errorf("synthesized %d lock ops, want 800", locks)
	}

	rc, err := dessim.Simulate(tr, machine(), "classic")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := dessim.Simulate(tr, machine(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if rl.Makespan >= rc.Makespan {
		t.Fatalf("lockfree %v >= classic %v on census-derived trace", rl.Makespan, rc.Makespan)
	}
}

// paperMachines and paperThreads are the machines and thread counts of the
// paper-ordering tests below.
var (
	paperMachines = []dessim.Machine{dessim.IceLakeLike(), dessim.EpycLike()}
	paperThreads  = []int{1, 2, 8, 32, 64}
)

// paperCase is one census shape at one hot-cell count, replayed on
// paperMachines at paperThreads. reduction[m][i] is 1 - lockfree/classic
// makespan on paperMachines[m] at paperThreads[i].
type paperCase struct {
	name      string
	reduction [][]float64
}

// paperCases replays census-derived traces for the three properties of the
// paper's simulated figure that DESIGN.md promises. Each census holds
// per-thread work constant as threads grow (weak scaling), with 1 ms of
// compute per thread.
func paperCases(t *testing.T) []paperCase {
	t.Helper()
	shapes := []struct {
		name                  string
		barriers, rmws, locks int64 // per thread
	}{
		{"barriers", 200, 0, 0},
		{"rmws", 1, 200, 0},
		{"locks", 1, 0, 200},
		{"barriers+rmws", 200, 200, 0},
		{"mixed", 200, 200, 200},
	}
	var cases []paperCase
	for _, sh := range shapes {
		for _, hot := range []int{1, 8} {
			c := paperCase{name: fmt.Sprintf("%s hot=%d", sh.name, hot), reduction: make([][]float64, len(paperMachines))}
			for m, machine := range paperMachines {
				for _, threads := range paperThreads {
					n := int64(threads)
					s := sync4.Snapshot{BarrierWaits: sh.barriers * n, CounterOps: sh.rmws * n, LockAcquires: sh.locks * n}
					tr := dessim.FromSnapshot(s, threads, time.Duration(threads)*time.Millisecond, hot)
					rc, err := dessim.Simulate(tr, machine, "classic")
					if err != nil {
						t.Fatal(err)
					}
					rl, err := dessim.Simulate(tr, machine, "lockfree")
					if err != nil {
						t.Fatal(err)
					}
					c.reduction[m] = append(c.reduction[m], 1-float64(rl.Makespan)/float64(rc.Makespan))
				}
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// TestLockfreeCheaperThanClassicForSameCensus: once threads share anything,
// the lock-free kit's makespan is below the classic kit's on both machines.
func TestLockfreeCheaperThanClassicForSameCensus(t *testing.T) {
	for _, c := range paperCases(t) {
		for m, machine := range paperMachines {
			for i, threads := range paperThreads {
				if threads >= 2 && c.reduction[m][i] <= 0 {
					t.Errorf("%s %s t=%d: lockfree/classic %.3f, want below 1",
						c.name, machine.Name, threads, 1-c.reduction[m][i])
				}
			}
		}
	}
}

// TestGapGrowsWithThreads: the lock-free kit's normalized time falls
// strictly as threads grow, on both machines.
func TestGapGrowsWithThreads(t *testing.T) {
	for _, c := range paperCases(t) {
		for m, machine := range paperMachines {
			for i := 1; i < len(paperThreads); i++ {
				if c.reduction[m][i] <= c.reduction[m][i-1] {
					t.Errorf("%s %s: normalized time %.3f at t=%d did not fall below %.3f at t=%d",
						c.name, machine.Name, 1-c.reduction[m][i], paperThreads[i],
						1-c.reduction[m][i-1], paperThreads[i-1])
				}
			}
		}
	}
}

// TestEpycShowsLargerReductionThanIceLake: at every threads >= 2 the
// lock-free reduction on EPYC exceeds Ice Lake's.
func TestEpycShowsLargerReductionThanIceLake(t *testing.T) {
	for _, c := range paperCases(t) {
		for i, threads := range paperThreads {
			if threads >= 2 && c.reduction[1][i] <= c.reduction[0][i] {
				t.Errorf("%s t=%d: EPYC reduction %.3f not above Ice Lake's %.3f",
					c.name, threads, c.reduction[1][i], c.reduction[0][i])
			}
		}
	}
}

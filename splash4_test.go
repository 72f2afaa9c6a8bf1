package splash4_test

import (
	"testing"

	splash4 "repro"
)

func TestFacadeSuite(t *testing.T) {
	if got := len(splash4.Suite()); got != 14 {
		t.Fatalf("Suite() has %d workloads, want 14", got)
	}
	if got := len(splash4.Names()); got != 14 {
		t.Fatalf("Names() has %d entries, want 14", got)
	}
	if _, err := splash4.ByName("barnes"); err != nil {
		t.Fatal(err)
	}
	if _, err := splash4.ByName("missing"); err == nil {
		t.Fatal("ByName accepted an unknown benchmark")
	}
}

func TestFacadeKits(t *testing.T) {
	if splash4.Classic().Name() != "classic" || splash4.Lockfree().Name() != "lockfree" {
		t.Fatal("kit names wrong through the facade")
	}
}

func TestFacadePairEndToEnd(t *testing.T) {
	bench, err := splash4.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	cfg := splash4.Config{Threads: 4, Scale: splash4.ScaleTest, Seed: 1}
	opt := splash4.Options{Reps: 1, Verify: true}
	rc, rl, err := splash4.Pair(bench, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Kit != "classic" || rl.Kit != "lockfree" {
		t.Fatalf("pair kits: %q, %q", rc.Kit, rl.Kit)
	}
	if rc.Times.N() != 1 || rl.Times.N() != 1 {
		t.Fatal("pair did not record one sample per kit")
	}
}

func TestFacadeInstrumentAndModel(t *testing.T) {
	bench, err := splash4.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	var counters splash4.SyncCounters
	cfg := splash4.Config{
		Threads: 4,
		Kit:     splash4.Instrument(splash4.Classic(), &counters, true),
		Scale:   splash4.ScaleTest,
		Seed:    1,
	}
	inst, err := bench.Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if counters.Snapshot().BarrierWaits == 0 {
		t.Fatal("instrumented run recorded no barrier waits")
	}
}

func TestFacadeSimulate(t *testing.T) {
	bench, err := splash4.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	res, err := splash4.Run(bench, splash4.Config{Threads: 4, Kit: splash4.Classic(), Scale: splash4.ScaleTest, Seed: 1},
		splash4.Options{Reps: 1, Instrument: true, TimedSync: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := splash4.TraceFromSnapshot(res.Sync, 4, res.Times.Mean(), int(res.Sync.RMWCells()))
	simClassic, err := splash4.Simulate(tr, splash4.IceLakeLike(), "classic")
	if err != nil {
		t.Fatal(err)
	}
	simLockfree, err := splash4.Simulate(tr, splash4.IceLakeLike(), "lockfree")
	if err != nil {
		t.Fatal(err)
	}
	if simLockfree.Makespan >= simClassic.Makespan {
		t.Fatalf("simulated lockfree %v >= classic %v", simLockfree.Makespan, simClassic.Makespan)
	}
	// A hand-built trace through the facade event kinds.
	hand := splash4.SimTrace{{
		{Kind: splash4.SimCompute, Dur: 1000},
		{Kind: splash4.SimRMW, Obj: 0},
		{Kind: splash4.SimBarrier, Obj: 0},
	}}
	if _, err := splash4.Simulate(hand, splash4.EpycLike(), "lockfree"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParallelAndBlockRange(t *testing.T) {
	var sum int64
	splash4.Parallel(1, func(tid int) { sum = int64(tid) + 1 })
	if sum != 1 {
		t.Fatal("Parallel(1) did not run the body")
	}
	lo, hi := splash4.BlockRange(1, 3, 10)
	if lo != 4 || hi != 7 {
		t.Fatalf("BlockRange(1,3,10) = (%d,%d), want (4,7)", lo, hi)
	}
}

func TestFacadeCompose(t *testing.T) {
	kit := splash4.Compose("hybrid", splash4.Classic(), splash4.Overrides{Counters: splash4.Lockfree()})
	if kit.Name() != "hybrid" {
		t.Fatalf("composed name %q", kit.Name())
	}
	bench, err := splash4.ByName("cholesky")
	if err != nil {
		t.Fatal(err)
	}
	res, err := splash4.Run(bench, splash4.Config{Threads: 3, Kit: kit, Scale: splash4.ScaleTest, Seed: 1},
		splash4.Options{Reps: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kit != "hybrid" {
		t.Fatalf("result kit %q", res.Kit)
	}
}

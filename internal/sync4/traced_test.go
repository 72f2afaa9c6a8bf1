package sync4_test

import (
	"testing"

	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/kittest"
	"repro/internal/sync4/lockfree"
	"repro/internal/trace"
)

func TestTraceNilRecorderReturnsKitUnchanged(t *testing.T) {
	kit := classic.New()
	if got := sync4.Trace(kit, nil); got != kit {
		t.Fatalf("Trace(kit, nil) wrapped the kit: %T", got)
	}
}

func TestTracedKitName(t *testing.T) {
	rec := trace.NewRecorder(4, 64)
	var c sync4.Counters
	for _, tc := range []struct {
		kit  sync4.Kit
		want string
	}{
		{sync4.Instrument(lockfree.New(), &c, false), "lockfree+instr"},
		{sync4.Trace(lockfree.New(), rec), "lockfree+trace"},
		{sync4.Trace(sync4.Instrument(lockfree.New(), &c, false), rec), "lockfree+instr+trace"},
		{sync4.Instrument(sync4.Trace(lockfree.New(), rec), &c, false), "lockfree+trace+instr"},
	} {
		if got := tc.kit.Name(); got != tc.want {
			t.Errorf("kit name = %q, want %q", got, tc.want)
		}
	}
}

// TestTracedZeroAlloc is the acceptance bound on tracing overhead: with
// tracing enabled, recording an operation's event allocates zero bytes.
func TestTracedZeroAlloc(t *testing.T) {
	if kittest.RaceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc holds in non-race builds")
	}
	rec := trace.NewRecorder(4, 1<<16)
	kit := sync4.Trace(lockfree.New(), rec)
	ctr := kit.NewCounter()
	acc := kit.NewAccumulator()
	q := kit.NewQueue(8)

	cases := []struct {
		name string
		op   func()
	}{
		{"counter-inc", func() { ctr.Inc() }},
		{"accum-add", func() { acc.Add(1) }},
		{"queue-roundtrip", func() { q.Put(1); q.TryGet() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(500, tc.op); allocs != 0 {
			t.Errorf("%s: %v allocs/op with tracing enabled, want 0", tc.name, allocs)
		}
	}
}

package sync4

import (
	"testing"

	"repro/internal/trace"
)

// bareKit stands in for a real kit, which this package cannot import: its
// constructs are nil, so anything else in a wrapper's slot is a second layer.
type bareKit struct{}

func (bareKit) Name() string                { return "bare" }
func (bareKit) NewBarrier(int) Barrier      { return nil }
func (bareKit) NewLock() Locker             { return nil }
func (bareKit) NewCounter() Counter         { return nil }
func (bareKit) NewAccumulator() Accumulator { return nil }
func (bareKit) NewMinMax() MinMax           { return nil }
func (bareKit) NewFlag() Flag               { return nil }
func (bareKit) NewQueue(int) Queue          { return nil }
func (bareKit) NewStack() Stack             { return nil }

// TestTraceFusesWithInstrument checks that Trace over Instrument is one
// layer: one kit over the bare kit, keeping Instrument's census and timing,
// whose objects hold the bare constructs directly.
func TestTraceFusesWithInstrument(t *testing.T) {
	var c Counters
	k, ok := Trace(Instrument(bareKit{}, &c, true), trace.NewRecorder(1, 16)).(*obsKit)
	if !ok || k.base != Kit(bareKit{}) || k.c != &c || !k.timed || k.r == nil {
		t.Fatalf("Trace(Instrument(bare)) = %+v, want one traced, timed layer over bare counting into c", k)
	}
	for family, inner := range map[string]any{
		"barrier": k.NewBarrier(1).(*obsBarrier).b,
		"lock":    k.NewLock().(*obsLock).l,
		"counter": k.NewCounter().(*obsCounter).c,
		"accum":   k.NewAccumulator().(*obsAccum).a,
		"minmax":  k.NewMinMax().(*obsMinMax).m,
		"flag":    k.NewFlag().(*obsFlag).f,
		"queue":   k.NewQueue(1).(*obsQueue).q,
		"stack":   k.NewStack().(*obsStack).s,
	} {
		if inner != nil {
			t.Errorf("%s: the traced object wraps a %T, not the bare construct", family, inner)
		}
	}
	if s := c.Snapshot(); s.BarriersCreated != 1 || s.StacksCreated != 1 {
		t.Errorf("the fused kit did not count into Instrument's census: %+v", s)
	}
}

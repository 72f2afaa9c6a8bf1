package splitmix

import "testing"

// TestReferenceVectors pins the stream to the reference splitmix64.c output
// for seed 1234567, so no refactor can silently shift every seeded schedule.
func TestReferenceVectors(t *testing.T) {
	state := uint64(1234567)
	for i, want := range []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423} {
		if i == 0 && Mix(state) != want {
			t.Fatal("Mix(seed) must equal the stream's first draw")
		}
		if got := Next(&state); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	// Roll pins the fault injectors' coin: Mix(Mix(seed^site^class<<56)^n)>>11
	// scaled to [0, 1).
	if got, want := Roll(1234567, 0x100, 2, 7), float64(5199524572451202)/(1<<53); got != want {
		t.Fatalf("Roll(1234567, 0x100, 2, 7) = %v, want %v", got, want)
	}
}

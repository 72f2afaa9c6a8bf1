package cholesky

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// run prepares and runs one instance and returns it.
func run(t *testing.T, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: classic.New(), Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// TestPrepareDrawsTheReferenceInput holds the prepared matrix, which Verify
// regenerates rather than copies, to the committed SHA-256 of its float64
// bits in row-major order. The digests were taken from the generation loop
// the program used while the instance kept a copy of its input.
func TestPrepareDrawsTheReferenceInput(t *testing.T) {
	want := map[string]string{
		"test seed=1":     "2268bb8efeb1445d95d3683b30c8904c3d8f8e521d2c5f4f95b24a9cf641f522",
		"test seed=7":     "2ed5df63f0204014f685a521bca2029dab357e18902cb1ea0172517c72f7aa8e",
		"test seed=77":    "e90528b25b847dbf26fb247a2b4e0289a0a8a9cc8ef800fbcbe4686f63024866",
		"small seed=1":    "da0dcf0dff8787d0c7e4679531ad2677f7c71686179058df2ff10122b3f4b8f1",
		"small seed=7":    "aecb6e86e078e9986df5100f8ea65c857e5c5e2b018f446cd4308b1da74d662d",
		"small seed=77":   "82a9f14f6de0bcade2f2717043d373b010362a0c0904c584306b7cc604a70491",
		"default seed=1":  "918c4ddda1109fa051e259f994442151d57aaaf545c4f3e8fdd8363db73b8ed0",
		"default seed=7":  "43fa78d0223a997f5c8cfbfbc3064cd7c9c17066e42a706bf3e886306088d440",
		"default seed=77": "5c1be21c39d4aa0e2c5090a475b701d703476df1bcc79355cb39d64dbe5550f5",
	}
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall, core.ScaleDefault} {
		for _, seed := range []int64{1, 7, 77} {
			inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := binary.Write(h, binary.LittleEndian, inst.(*instance).a); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s seed=%d", scale, seed)
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[key] {
				t.Errorf("%s: input digest %s, reference %s", key, got, want[key])
			}
		}
	}
}

// TestVerifyCatchesCorruption perturbs one entry of L by a relative 1e-6
// after a correct factorization, once inside the first diagonal block and
// once in the last block row: Verify must reject both.
func TestVerifyCatchesCorruption(t *testing.T) {
	for _, at := range [][2]int{{1, 0}, {127, 1}} {
		in := run(t, core.ScaleTest, 3)
		if err := in.Verify(); err != nil {
			t.Fatal(err)
		}
		in.a[at[0]*in.n+at[1]] *= 1 + 1e-6
		if err := in.Verify(); err == nil {
			t.Fatalf("Verify accepted L[%d][%d] off by a relative 1e-6", at[0], at[1])
		}
	}
}

// TestVerifyRejectsSinglePrecisionUpdate is the tolerance's own check: a
// correct factorization with every element rounded to float32, the
// precision a float32 update would leave, must fail Verify.
func TestVerifyRejectsSinglePrecisionUpdate(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleDefault} {
		in := run(t, scale, 7)
		for i, v := range in.a {
			in.a[i] = float64(float32(v))
		}
		if err := in.Verify(); err == nil {
			t.Fatalf("scale %s: Verify accepted a factor rounded to float32", scale)
		}
	}
}

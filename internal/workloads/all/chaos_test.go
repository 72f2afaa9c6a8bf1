package all_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sync4/faulty"
	"repro/internal/workloads/all"
	"repro/internal/workloads/workloadtest"
)

// TestSuiteCensusSurvivesFaultInjection is the fault-injection gate: every
// workload under both kits runs clean and again under the deterministic
// faulty.Mild schedule (delays at operation boundaries, barrier stragglers,
// spurious flag wakeups), watchdog armed on both. Injected schedule noise
// may change timing, never results: both runs must verify and produce
// identical synchronization censuses. A failure names the workload, kit
// and seed and reproduces with `go test -run <this test>/<workload>`.
func TestSuiteCensusSurvivesFaultInjection(t *testing.T) {
	const (
		threads   = 4
		chaosSeed = 42
	)
	opt := harness.Options{Verify: true, Instrument: true, RepTimeout: 2 * time.Minute}
	for _, b := range all.Suite() {
		for _, kit := range workloadtest.Kits() {
			b, kit := b, kit
			t.Run(b.Name()+"/"+kit.Name(), func(t *testing.T) {
				t.Parallel()
				cfg := core.Config{Threads: threads, Kit: kit, Scale: core.ScaleTest, Seed: 1}
				clean, err := harness.Run(b, cfg, opt)
				if err != nil {
					t.Fatalf("clean run: %v", err)
				}

				inj := faulty.New(faulty.Mild(chaosSeed))
				cfg.Kit = inj.Wrap(kit)
				chaos, err := harness.Run(b, cfg, opt)
				if err != nil {
					if chaos.Stall != nil {
						t.Log(chaos.Stall.String())
					}
					t.Fatalf("run under faulty.Mild(%d): %v", chaosSeed, err)
				}
				rep := inj.Report()
				if rep.Total() == 0 {
					t.Fatalf("no faults injected over %d kit operations; the comparison tested nothing", rep.Ops)
				}
				if !clean.HasSync || !chaos.HasSync {
					t.Fatalf("missing census (clean=%v chaos=%v)", clean.HasSync, chaos.HasSync)
				}
				if clean.Sync != chaos.Sync {
					t.Fatalf("census diverged under faulty.Mild(%d), %d faults over %d kit operations:\nclean %+v\nchaos %+v",
						chaosSeed, rep.Total(), rep.Ops, clean.Sync, chaos.Sync)
				}
			})
		}
	}
}

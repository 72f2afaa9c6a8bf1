package all_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
)

func TestSuiteHasFourteenUniqueWorkloads(t *testing.T) {
	suite := all.Suite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d workloads, want 14", len(suite))
	}
	seen := map[string]bool{}
	for _, b := range suite {
		if b.Name() == "" || b.Description() == "" {
			t.Errorf("workload %T lacks name or description", b)
		}
		if seen[b.Name()] {
			t.Errorf("duplicate name %q", b.Name())
		}
		seen[b.Name()] = true
	}
	// The canonical members.
	for _, want := range []string{
		"cholesky", "fft", "lu", "lu-contiguous", "radix",
		"barnes", "fmm", "ocean", "ocean-contiguous", "radiosity",
		"raytrace", "volrend", "water-nsquared", "water-spatial",
	} {
		if !seen[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	b, err := all.ByName("fft")
	if err != nil || b.Name() != "fft" {
		t.Fatalf("ByName(fft) = %v, %v", b, err)
	}
	if _, err := all.ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
}

func TestNamesMatchesSuiteOrder(t *testing.T) {
	names := all.Names()
	suite := all.Suite()
	if len(names) != len(suite) {
		t.Fatalf("Names() length %d != suite length %d", len(names), len(suite))
	}
	for i := range names {
		if names[i] != suite[i].Name() {
			t.Fatalf("Names()[%d] = %q, suite[%d] = %q", i, names[i], i, suite[i].Name())
		}
	}
}

// TestWholeSuiteIntegration runs every workload end to end at test scale
// under the lockfree kit with an odd thread count: the suite-level smoke
// test that everything composes.
func TestWholeSuiteIntegration(t *testing.T) {
	for _, b := range all.Suite() {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			inst, err := b.Prepare(core.Config{Threads: 3, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Run(); err != nil {
				t.Fatal(err)
			}
			if err := inst.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// prepareBudgetKiB is what one Prepare may allocate at small scale with two
// threads, under either kit: about 10 % over the bytes measured once Verify
// regenerated every input from the seed. A program that keeps a copy of its
// input again goes over: radix's copy is 2 MiB at this scale, each LU's and
// cholesky's 0.5 MiB. barnes's includes the force phase's walk array, 768
// KiB at this scale.
var prepareBudgetKiB = map[string]uint64{
	"cholesky":         576,
	"fft":              2304,
	"lu-contiguous":    576,
	"lu":               576,
	"radix":            4608,
	"barnes":           2560,
	"fmm":              320,
	"ocean-contiguous": 448,
	"ocean":            448,
	"radiosity":        384,
	"raytrace":         1728,
	"volrend":          2496,
	"water-nsquared":   64,
	"water-spatial":    64,
}

// TestPrepareKeepsNoInputCopy holds every program's Prepare to its budget.
// Prepare runs again before every timed repetition, so its bytes are paid
// in page faults on every one. The test is not parallel, so the allocation
// counter sees this goroutine's Prepare alone; the least of three tries
// discards a stray background allocation.
func TestPrepareKeepsNoInputCopy(t *testing.T) {
	for _, b := range all.Suite() {
		budget, ok := prepareBudgetKiB[b.Name()]
		if !ok {
			t.Errorf("%s has no Prepare budget", b.Name())
			continue
		}
		for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			used := ^uint64(0)
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := b.Prepare(core.Config{Threads: 2, Kit: kit, Scale: core.ScaleSmall, Seed: 1})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				used = min(used, after.TotalAlloc-before.TotalAlloc)
			}
			if used > budget<<10 {
				t.Errorf("%s/%s: Prepare allocates %d KiB, budget %d KiB", b.Name(), kit.Name(), used>>10, budget)
			}
		}
	}
}

// runMallocs is how many heap objects one Run allocates with two threads at
// small scale, under each kit: runner is what core.Parallel itself
// allocates, and every program allocates just that unless it is listed
// here.
const runner = 5

var runMallocs = map[string][2]uint64{ // classic, lock-free
	// The classic kit's stack is a slice that grows to the pile's size
	// during the first iteration; the lock-free Treiber stack allocates
	// one node per push (ROADMAP item 4).
	"radiosity": {runner + 6, runner + 3780},
}

// TestRunAllocatesOnlyWhatIsStated holds every program's timed region to its
// allocation count: a buffer a kernel allocates inside Run instead of in
// Prepare shows up here. The count is exact. The runtime can add to it: a
// goroutine descriptor or a wait queue entry that one P freed and another
// needs is allocated again. The test therefore runs the two workers on one
// P and takes the least of up to ten runs. Under -race the counts are the
// same.
func TestRunAllocatesOnlyWhatIsStated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, b := range all.Suite() {
		want, ok := runMallocs[b.Name()]
		if !ok {
			want = [2]uint64{runner, runner}
		}
		for k, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
			got := ^uint64(0)
			for try := 0; try < 10 && got > want[k]; try++ {
				inst, err := b.Prepare(core.Config{Threads: 2, Kit: kit, Scale: core.ScaleSmall, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = inst.Run()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				got = min(got, after.Mallocs-before.Mallocs)
			}
			if got != want[k] {
				t.Errorf("%s/%s: Run allocates %d objects, want %d", b.Name(), kit.Name(), got, want[k])
			}
		}
	}
}

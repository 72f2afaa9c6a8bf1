package all_test

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
	"repro/internal/workloads/workloadtest"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this tree's programs")

// digestThreads lists, per program, the thread counts at which its result
// depends on its inputs alone, so a committed digest can hold it. It is
// test data, not a setting of the programs.
//   - cholesky, fft, lu, lu-contiguous, radix, barnes, ocean-contiguous,
//     ocean, radiosity, raytrace and volrend compute the same bits at every
//     thread count and under both kits. lu and lu-contiguous compute the
//     same bits as each other, and so do the two oceans.
//   - water-nsquared merges each force cell from one private sum per
//     thread: at two threads that is one two-operand sum, which is exact
//     in either order, so the result is kit- and schedule-invariant (but
//     differs from the one-thread result); from three threads the order of
//     the merge follows the schedule.
//   - fmm and water-spatial link particles into their boxes or cells in
//     arrival order from two threads on, so they are pinned at one thread.
//
// At the thread counts a program is not listed for, Verify is its oracle.
// ocean, ocean-contiguous and radiosity ignore the seed, so their three
// seeds' lines carry the same digest.
var digestThreads = map[string][]int{
	"cholesky":         {1, 2, 3, 7},
	"fft":              {1, 2, 3, 7},
	"lu-contiguous":    {1, 2, 3, 7},
	"lu":               {1, 2, 3, 7},
	"radix":            {1, 2, 3, 7},
	"barnes":           {1, 2, 3, 7},
	"fmm":              {1},
	"ocean-contiguous": {1, 2, 3, 7},
	"ocean":            {1, 2, 3, 7},
	"radiosity":        {1, 2, 3, 7},
	"raytrace":         {1, 2, 3, 7},
	"volrend":          {1, 2, 3, 7},
	"water-nsquared":   {1, 2},
	"water-spatial":    {1},
}

// TestResultDigests is the programs' output oracle. Every program of the
// suite must be a core.ResultWriter with a digestThreads entry. Each runs at
// test and small scale, seeds 1, 7 and 77, under both kits, at each of its
// digestThreads counts, and the SHA-256 of the result state it writes must
// equal the line committed for that run in testdata/digests.txt. A kernel
// change that keeps its output leaves every line as it is; one that changes
// a bit of it changes a line. Under a -run filter that selects some of the
// runs subtests, only those programs' lines are compared. -update rewrites
// the file (make digests), and only from a run of every program.
func TestResultDigests(t *testing.T) {
	programs := all.Suite()
	for _, b := range programs {
		inst, err := b.Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inst.(core.ResultWriter); !ok {
			t.Errorf("%s does not write its result: its instance must implement core.ResultWriter", b.Name())
		}
		if digestThreads[b.Name()] == nil {
			t.Errorf("%s has no digestThreads entry", b.Name())
		}
	}
	if t.Failed() {
		return
	}

	runs := make([][]string, len(programs)) // per program: "<run> <digest>"
	t.Run("runs", func(t *testing.T) {
		for p, b := range programs {
			t.Run(b.Name(), func(t *testing.T) {
				t.Parallel()
				for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall} {
					for _, seed := range []int64{1, 7, 77} {
						for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
							for _, threads := range digestThreads[b.Name()] {
								key, sum, err := workloadtest.Digest(b, core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
								if err != nil {
									t.Fatal(err)
								}
								runs[p] = append(runs[p], key+" "+sum)
							}
						}
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	lines := slices.Concat(runs...)
	skipped := map[string]bool{} // programs the -run filter left out
	for p, b := range programs {
		if len(runs[p]) == 0 {
			skipped[b.Name()] = true
		}
	}

	if *update {
		if len(skipped) > 0 {
			t.Fatalf("-update ran %d of %d programs: drop the -run filter so that %s is written whole", len(programs)-len(skipped), len(programs), workloadtest.DigestFile)
		}
		if err := os.WriteFile(workloadtest.DigestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), workloadtest.DigestFile)
		return
	}
	want, err := workloadtest.ReadDigests() // run -> committed digest
	if err != nil {
		t.Fatal(err)
	}
	const howTo = "if the change is intended, run make digests and justify every changed line in CHANGES.md"
	seen := map[string]bool{}
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		key, sum := line[:i], line[i+1:]
		seen[key] = true
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no digest in %s (%s)", key, workloadtest.DigestFile, howTo)
		case w != sum:
			t.Errorf("%s: result digest %s, %s has %s (%s)", key, sum, workloadtest.DigestFile, w, howTo)
		}
	}
	for key := range want {
		if name, _, _ := strings.Cut(key, " "); !seen[key] && !skipped[name] {
			t.Errorf("%s: %s holds a digest for a run this tree no longer makes (%s)", key, workloadtest.DigestFile, howTo)
		}
	}
}

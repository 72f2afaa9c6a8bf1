package all_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/all"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this tree's programs")

const digestFile = "testdata/digests.txt"

// digestThreads lists, per program, the thread counts at which its result
// depends on its inputs alone, so a committed digest can hold it. It is
// test data, not a setting of the programs.
//   - barnes, raytrace, volrend, ocean and ocean-contiguous compute the same
//     bits at every thread count and under both kits.
//   - water-nsquared merges each force cell from one private sum per
//     thread: at two threads that is one two-operand sum, which is exact
//     in either order, so the result is kit- and schedule-invariant (but
//     differs from the one-thread result); from three threads the order of
//     the merge follows the schedule.
//   - water-spatial links each cell's molecules in arrival order from two
//     threads on, so it is pinned at one thread.
//
// At the thread counts a program is not listed for, Verify is its oracle.
var digestThreads = map[string][]int{
	"barnes":           {1, 2, 3, 7},
	"ocean-contiguous": {1, 2, 3, 7},
	"ocean":            {1, 2, 3, 7},
	"raytrace":         {1, 2, 3, 7},
	"volrend":          {1, 2, 3, 7},
	"water-nsquared":   {1, 2},
	"water-spatial":    {1},
}

// TestResultDigests is the programs' output oracle. Every program whose
// instance is a core.ResultWriter runs at test and small scale, seeds 1, 7
// and 77, under both kits, at each of its digestThreads counts, and the
// SHA-256 of the result state it writes must equal the line committed for
// that run in testdata/digests.txt. A kernel change that keeps its output
// leaves every line as it is; one that changes a bit of it changes a line.
// -update rewrites the file (make digests).
func TestResultDigests(t *testing.T) {
	var programs []core.Benchmark
	for _, b := range all.Suite() {
		inst, err := b.Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inst.(core.ResultWriter); ok {
			if digestThreads[b.Name()] == nil {
				t.Fatalf("%s writes its result but has no digestThreads entry", b.Name())
			}
			programs = append(programs, b)
		}
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
								inst, err := b.Prepare(core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
								if err != nil {
									t.Fatal(err)
								}
								if err := inst.Run(); err != nil {
									t.Fatal(err)
								}
								h := sha256.New()
								if err := inst.(core.ResultWriter).WriteResult(h); err != nil {
									t.Fatal(err)
								}
								runs[p] = append(runs[p], fmt.Sprintf("%s %s seed=%d %s threads=%d %x", b.Name(), scale, seed, kit.Name(), threads, h.Sum(nil)))
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

	if *update {
		if err := os.WriteFile(digestFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), digestFile)
		return
	}
	want := map[string]string{} // run -> committed digest
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (make digests writes it)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		i := strings.LastIndexByte(sc.Text(), ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[sc.Text()[:i]] = sc.Text()[i+1:]
	}
	if err := sc.Err(); err != nil {
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
			t.Errorf("%s: no digest in %s (%s)", key, digestFile, howTo)
		case w != sum:
			t.Errorf("%s: result digest %s, %s has %s (%s)", key, sum, digestFile, w, howTo)
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("%s: %s holds a digest for a run this tree no longer makes (%s)", key, digestFile, howTo)
		}
	}
}

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

// TestResultDigests is the programs' output oracle. Every program whose
// instance is a core.ResultWriter runs at test and small scale, seeds 1, 7
// and 77, 1, 2, 3 and 7 threads, under both kits, and the SHA-256 of the
// result state it writes must equal the line committed for that run in
// testdata/digests.txt. A kernel change that keeps its output leaves every
// line as it is; one that changes a bit of it changes a line. -update
// rewrites the file (make digests).
func TestResultDigests(t *testing.T) {
	var programs []core.Benchmark
	for _, b := range all.Suite() {
		inst, err := b.Prepare(core.Config{Threads: 1, Kit: classic.New(), Scale: core.ScaleTest, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := inst.(core.ResultWriter); ok {
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
							for _, threads := range []int{1, 2, 3, 7} {
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

// Package workloadtest provides the shared correctness matrix every
// workload's tests run: prepare, run and verify at test scale, under both
// synchronization kits and a spread of thread counts (including counts that
// do not divide the problem size and counts above GOMAXPROCS). It also
// computes and reads the committed result digests, the programs' output
// oracle.
package workloadtest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
)

// Kits returns the two kits of the suite comparison.
func Kits() []sync4.Kit {
	return []sync4.Kit{classic.New(), lockfree.New()}
}

// DefaultThreads is the thread matrix used by Matrix.
var DefaultThreads = []int{1, 2, 3, 7, 16}

// Matrix runs b at ScaleTest under every kit and thread count and fails the
// test on any prepare/run/verify error.
func Matrix(t *testing.T, b core.Benchmark) {
	t.Helper()
	MatrixThreads(t, b, DefaultThreads)
}

// MatrixThreads is Matrix with an explicit thread list, for workloads whose
// test scale caps the usable parallelism.
func MatrixThreads(t *testing.T, b core.Benchmark, threads []int) {
	t.Helper()
	for _, kit := range Kits() {
		for _, n := range threads {
			kit, n := kit, n
			t.Run(fmt.Sprintf("%s/t%d", kit.Name(), n), func(t *testing.T) {
				t.Parallel()
				RunOnce(t, b, kit, n)
			})
		}
	}
}

// RunOnce runs one prepare/run/verify cycle at ScaleTest and reports errors.
func RunOnce(t *testing.T, b core.Benchmark, kit sync4.Kit, threads int) {
	t.Helper()
	inst, err := b.Prepare(core.Config{Threads: threads, Kit: kit, Scale: core.ScaleTest, Seed: 1})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// DigestFile holds the committed result digest of every run the suite's
// output oracle makes (TestResultDigests in package all), one
// "<program> <scale> seed=<s> <kit> threads=<n> <sha256>" line each. The
// path is relative to a workload package's directory, where go test runs.
const DigestFile = "../all/testdata/digests.txt"

// Digest prepares and runs b under cfg and returns the run's key and the
// SHA-256 of the result state it writes, as DigestFile records them.
func Digest(b core.Benchmark, cfg core.Config) (key, sum string, err error) {
	inst, err := b.Prepare(cfg)
	if err != nil {
		return "", "", err
	}
	if err := inst.Run(); err != nil {
		return "", "", err
	}
	rw, ok := inst.(core.ResultWriter)
	if !ok {
		return "", "", fmt.Errorf("%s does not write its result: its instance must implement core.ResultWriter", b.Name())
	}
	h := sha256.New()
	if err := rw.WriteResult(h); err != nil {
		return "", "", err
	}
	key = fmt.Sprintf("%s %s seed=%d %s threads=%d", b.Name(), cfg.Scale, cfg.Seed, cfg.Kit.Name(), cfg.Threads)
	return key, fmt.Sprintf("%x", h.Sum(nil)), nil
}

// ReadDigests reads DigestFile into a map from run key to digest.
func ReadDigests() (map[string]string, error) {
	data, err := os.ReadFile(DigestFile)
	if err != nil {
		return nil, fmt.Errorf("%v (make digests writes it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", DigestFile, line)
		}
		want[line[:i]] = line[i+1:]
	}
	return want, nil
}

// MatchesDigests holds b to its committed result: at test scale, seeds 1, 7
// and 77, under both kits and at each of threads, every run's digest must
// be the one DigestFile has for it. It is the package-local form of the
// suite's output oracle, which also runs small scale.
func MatchesDigests(t *testing.T, b core.Benchmark, threads ...int) {
	t.Helper()
	want, err := ReadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 77} {
		for _, kit := range Kits() {
			for _, n := range threads {
				key, sum, err := Digest(b, core.Config{Threads: n, Kit: kit, Scale: core.ScaleTest, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if w, ok := want[key]; !ok {
					t.Errorf("%s: no digest in %s", key, DigestFile)
				} else if w != sum {
					t.Errorf("%s: result digest %s, %s has %s", key, sum, DigestFile, w)
				}
			}
		}
	}
}

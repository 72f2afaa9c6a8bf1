package barnes

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sync4"
	"repro/internal/sync4/classic"
	"repro/internal/sync4/lockfree"
	"repro/internal/workloads/workloadtest"
)

func TestCorrectAcrossKitsAndThreads(t *testing.T) {
	workloadtest.Matrix(t, New())
}

func TestRepeatedRunsWithContention(t *testing.T) {
	// The locked tree build is the raciest phase of the suite; hammer it.
	for run := 0; run < 4; run++ {
		inst, err := New().Prepare(core.Config{Threads: 12, Kit: lockfree.New(), Scale: core.ScaleTest, Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestTooManyThreadsRejected(t *testing.T) {
	_, err := New().Prepare(core.Config{Threads: 100000, Kit: lockfree.New(), Scale: core.ScaleTest})
	if err == nil {
		t.Fatal("Prepare accepted more threads than bodies")
	}
}

func TestInstanceReuseFails(t *testing.T) {
	inst, err := New().Prepare(core.Config{Threads: 2, Kit: lockfree.New(), Scale: core.ScaleTest})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func prepare(t *testing.T, kit sync4.Kit, threads int, scale core.Scale, seed int64) *instance {
	t.Helper()
	inst, err := New().Prepare(core.Config{Threads: threads, Kit: kit, Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*instance)
}

// run prepares, runs and verifies one instance and returns it.
func run(t *testing.T, kit sync4.Kit, threads int, scale core.Scale, seed int64) *instance {
	t.Helper()
	in := prepare(t, kit, threads, scale, seed)
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if err := in.Verify(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDeterministicAcrossKits holds x, v and acc bit for bit to barnes's
// committed result digests under both kits at 1, 2, 3 and 7 threads. A
// chunk that skips or repeats a rank, a tree that depends on insertion
// order, or a pool lock that fails to exclude shows up as a differing bit.
func TestDeterministicAcrossKits(t *testing.T) {
	workloadtest.MatchesDigests(t, New(), 1, 2, 3, 7)
}

// leaves appends idx's bodies in depth-first octant order: the tree order
// bodies must reproduce, computed without the counts.
func (in *instance) leaves(idx int32, out []int32) []int32 {
	nd := &in.arena[idx]
	if nd.body >= 0 {
		return append(out, nd.body)
	}
	for _, c := range nd.children {
		if c >= 0 {
			out = in.leaves(c, out)
		}
	}
	return out
}

// TestChunksCoverTreeOrder cuts the ranks into chunks of several sizes and
// requires their concatenation to be the tree's depth-first order, which
// must itself be a permutation of the bodies.
func TestChunksCoverTreeOrder(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall} {
		in := run(t, lockfree.New(), 3, scale, 7)
		want := in.leaves(in.root, nil)
		sorted := slices.Clone(want)
		slices.Sort(sorted)
		for i, b := range sorted {
			if b != int32(i) {
				t.Fatalf("scale %s: the tree's leaves are not a permutation of the bodies: sorted, leaf %d is body %d", scale, i, b)
			}
		}
		if len(want) != in.n {
			t.Fatalf("scale %s: the tree has %d leaves, want %d", scale, len(want), in.n)
		}
		for _, size := range []int{1, 16, 17, in.n} {
			var got []int32
			for lo := 0; lo < in.n; lo += size {
				got = in.bodies(in.root, int64(lo), int64(min(lo+size, in.n)), got)
			}
			if !slices.Equal(got, want) {
				t.Errorf("scale %s, chunks of %d: %d bodies, not the tree's %d in tree order", scale, size, len(got), len(want))
			}
		}
	}
}

// TestVerifyChecksTheRootFold moves the root's center of mass by one part in
// 1e6 of the box, then miscounts its bodies by one; Verify must reject both.
func TestVerifyChecksTheRootFold(t *testing.T) {
	for _, spoil := range []func(in *instance){
		func(in *instance) { in.arena[in.root].cy += 1e-6 * in.boxSize },
		func(in *instance) { in.arena[in.root].count-- },
	} {
		in := run(t, lockfree.New(), 2, core.ScaleTest, 7)
		spoil(in)
		if err := in.Verify(); err == nil {
			t.Error("Verify accepted a spoiled root")
		} else {
			t.Log(err)
		}
	}
}

// preorder appends idx's subtree, a cell of half-width hw, in the order a
// depth-first walk visits it, children 7 to 0 (the stack walk the laid-out
// one replaced), each cell's width from halving the half-width per level.
func (in *instance) preorder(idx int32, hw float64, out []cell) []cell {
	nd := &in.arena[idx]
	k := len(out)
	out = append(out, cellOf(nd, hw, 0))
	if nd.body < 0 {
		for o := 7; o >= 0; o-- {
			if c := nd.children[o]; c >= 0 {
				out = in.preorder(c, hw/2, out)
			}
		}
	}
	out[k].skip = int32(len(out))
	return out
}

// TestWalkIsTheStackWalksOrder holds the walk that the threads lay out in
// parallel, each subtree at the place the build's node counts give it, to a
// one-pass pre-order layout of the same tree, entry for entry, and requires
// it to hold every node of the arena. A miscounted node shifts a subtree and
// fails here.
func TestWalkIsTheStackWalksOrder(t *testing.T) {
	for _, scale := range []core.Scale{core.ScaleTest, core.ScaleSmall} {
		for _, seed := range []int64{1, 7} {
			for _, kit := range []sync4.Kit{classic.New(), lockfree.New()} {
				for _, threads := range []int{1, 2, 3, 7} {
					in := run(t, kit, threads, scale, seed)
					got := in.walk[:in.walk[0].skip]
					want := in.preorder(in.root, in.boxSize/2, nil)
					if !slices.Equal(got, want) {
						t.Errorf("scale %s seed %d, %s, %d threads: the laid-out walk (%d entries) is not the pre-order one (%d)", scale, seed, kit.Name(), threads, len(got), len(want))
					}
					if nodes := in.arenaCtr.Load(); int64(len(got)) != nodes {
						t.Errorf("scale %s seed %d, %s, %d threads: %d walk entries for %d nodes", scale, seed, kit.Name(), threads, len(got), nodes)
					}
				}
			}
		}
	}
}

// TestNodeSizeMatchesPackageComment keeps the package comment's memory
// figures true.
func TestNodeSizeMatchesPackageComment(t *testing.T) {
	if s := unsafe.Sizeof(node{}); s != 72 {
		t.Errorf("node is %d bytes; the package comment says 72", s)
	}
	if s := unsafe.Sizeof(cell{}); s != 48 {
		t.Errorf("a walk entry is %d bytes; the package comment says 48", s)
	}
}

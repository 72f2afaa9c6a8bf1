package cluster

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/server"
)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fft|lockfree|%d|test|%d|8|0", 1+i%8, i)
	}
	return keys
}

// router returns node a of an a/b/c cluster with every peer marked up and
// no loop started: enough to ask routeOwner.
func router(t *testing.T) *Cluster {
	t.Helper()
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "a.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store, NodeID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	c, err := New(Config{Self: "a", Server: srv, Logf: t.Logf,
		Peers: map[string]string{"b": "http://127.0.0.1:1", "c": "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for _, p := range c.peers {
		p.up.Store(true)
	}
	return c
}

func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	for _, k := range sampleKeys(256) {
		want := rendezvous(k, []string{"a", "b", "c"})
		for _, order := range [][]string{{"c", "a", "b"}, {"b", "c", "a"}, {"c", "b", "a"}} {
			if got := rendezvous(k, order); got != want {
				t.Fatalf("rendezvous(%q) depends on node order: %q over %v, %q over a,b,c", k, got, order, want)
			}
		}
		if again := rendezvous(k, []string{"a", "b", "c"}); again != want {
			t.Fatalf("rendezvous(%q) is not deterministic: %q vs %q", k, again, want)
		}
	}
}

// TestRouteSpreadsSpecKeys routes keys shaped like the repository
// benchmark's cluster_mixed submissions (fft at test scale, one thread, one
// rep, kits alternating, a random seed with the sequence number in its low
// bits) from three seeds: each of three healthy nodes must own 28-39 % of
// them, where an even split is 33 %.
func TestRouteSpreadsSpecKeys(t *testing.T) {
	c := router(t)
	counts := map[string]int{}
	total := 0
	for _, seed := range []uint64{1, 2, 42} {
		rng := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 1000; i++ {
			sp := server.Spec{Workload: "fft", Kit: []string{"classic", "lockfree"}[i%2], Threads: 1, Scale: "test", Reps: 1,
				Seed: int64(rng.Uint32())<<24 | int64(i)}
			if err := c.srv.NormalizeSpec(&sp); err != nil {
				t.Fatal(err)
			}
			counts[c.routeOwner(sp.Key())]++
			total++
		}
	}
	t.Logf("split over a/b/c: %v of %d", counts, total)
	for _, id := range []string{"a", "b", "c"} {
		if share := float64(counts[id]) / float64(total); share < 0.28 || share > 0.39 {
			t.Errorf("node %s owns %d/%d keys (%.1f %%), want 28-39 %%: %v", id, counts[id], total, 100*share, counts)
		}
	}
}

// TestRendezvousRemovalOnlyMovesTheRemovedNodesKeys marks node c down: the
// keys c owned move to a survivor, and no other key moves.
func TestRendezvousRemovalOnlyMovesTheRemovedNodesKeys(t *testing.T) {
	c := router(t)
	keys := sampleKeys(600)
	was := make([]string, len(keys))
	for i, k := range keys {
		was[i] = c.routeOwner(k)
	}
	c.peers["c"].up.Store(false)
	moved := 0
	for i, k := range keys {
		now := c.routeOwner(k)
		if now == "c" {
			t.Fatalf("key %q still routed to c, which is down", k)
		}
		if was[i] != "c" && now != was[i] {
			t.Fatalf("key %q moved %s→%s although its owner never left", k, was[i], now)
		}
		if was[i] == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("sample gave node c no keys; spread test should have caught this")
	}
}

func TestRendezvousPicksHealthyStandIn(t *testing.T) {
	nodes := []string{"a", "b", "c"}
	counts := map[string]int{}
	for _, k := range sampleKeys(300) {
		got := rendezvous(k, nodes)
		if got != "a" && got != "b" && got != "c" {
			t.Fatalf("rendezvous(%q) = %q, not a member", k, got)
		}
		counts[got]++
		// Shrinking the candidate set must not move keys whose winner
		// survives (the minimal-disruption property routing relies on
		// while a node is down).
		if got != "c" {
			if again := rendezvous(k, []string{"a", "b"}); again != got {
				t.Fatalf("rendezvous(%q) moved %s→%s although the winner stayed", k, got, again)
			}
		}
	}
	for _, id := range nodes {
		if counts[id] == 0 {
			t.Errorf("rendezvous never chose %s: %v", id, counts)
		}
	}
	if got := rendezvous("anything", nil); got != "" {
		t.Errorf("rendezvous with no candidates = %q, want empty", got)
	}
}

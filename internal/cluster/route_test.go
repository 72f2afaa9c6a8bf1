package cluster

import (
	"testing"

	"repro/internal/server"
)

// TestHopGuardServesLocallyNeverReforwards submits a spec owned by the
// OTHER node with the hop-guard header already set: the receiving node
// must serve it locally — the returned job ID names the receiving node as
// owner — and must not forward it anywhere, so a routing disagreement can
// degrade service placement but never build a forwarding loop.
//
//sync4:covers SYNC4-CLUS-001
func TestHopGuardServesLocallyNeverReforwards(t *testing.T) {
	nodes := startTestCluster(t, []string{"a", "b"}, nil)
	a := nodes["a"]

	// Find a spec routed to b.
	seed := int64(-1)
	for s := int64(0); s < 64; s++ {
		sp := server.Spec{Workload: "fft", Kit: "lockfree", Threads: 2, Scale: "test", Seed: s, Reps: 2}
		if err := a.srv.NormalizeSpec(&sp); err != nil {
			t.Fatal(err)
		}
		if a.cl.routeOwner(sp.Key()) == "b" {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed in 0..63 hashes to node b")
	}

	fwd := a.cl.forwardedTotal.Load()
	id := submitTo(t, a.base, specBody("fft", "lockfree", seed), true) // pin sets the hop guard
	if owner := ownerFromJobID(id); owner != "a" {
		t.Fatalf("hop-guarded submission owned by %q, want local service on a", owner)
	}
	if got := a.cl.forwardedTotal.Load(); got != fwd {
		t.Fatalf("hop-guarded submission was re-forwarded (%d → %d forwards)", fwd, got)
	}
	if v := jobView(t, a.base, id); v["status"] != "done" {
		t.Fatalf("job %s finished %v, want done", id, v["status"])
	}
}

package cluster

// Job routing: rendezvous (highest-random-weight) hashing of the spec key
// over the nodes that are healthy right now.
//
// Every node that agrees on the healthy set picks the same owner, so
// singleflight dedup and journal placement agree cluster-wide; with every
// node up, that is the owner over the configured membership, the same on
// every node and across restarts. A node that goes down gives up only its
// own keys, spread evenly over the survivors, and takes them back when it
// heals: a healthy owner is never passed over.

// fnv64a is the 64-bit FNV-1a hash — the suite's standalone workloads use
// the same family, and it avoids pulling hash/maphash's per-process seed
// into routing (owners must agree across processes).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// rendezvous returns the highest-random-weight choice for key among nodes
// ("" when nodes is empty). The choice does not depend on the order of
// nodes, and removing a node moves only the keys it was chosen for.
func rendezvous(key string, nodes []string) string {
	var best string
	var bestHash uint64
	for _, n := range nodes {
		h := fnv64a(n + "@" + key)
		if best == "" || h > bestHash || (h == bestHash && n < best) {
			best, bestHash = n, h
		}
	}
	return best
}

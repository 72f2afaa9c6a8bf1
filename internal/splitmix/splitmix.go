// Package splitmix is the module's one splitmix64 (Steele, Lea & Flood,
// OOPSLA 2014): every seeded fault schedule, test traffic schedule, retry
// jitter and journal generation ID draws through it, so a pinned seed means
// the same bits everywhere.
package splitmix

const gamma = 0x9E3779B97F4A7C15 // stream increment

// Mix is the splitmix64 output for state z: a bijective 64-bit avalanche,
// usable on its own as a hash of z.
func Mix(z uint64) uint64 {
	z += gamma
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next advances the stream held in *state and returns its next 64 bits.
func Next(state *uint64) uint64 {
	z := Mix(*state)
	*state += gamma
	return z
}

// Roll is sync4/faulty's coin: the uniform draw in [0, 1) for the
// n-th event on site under the schedule seed. Each fault class gets its own
// stream (the class is offset into the site's top byte), so a site that
// consults two classes draws independently for each. Roll is stateless, so
// a schedule never depends on the interleaving of the sites consulting it.
func Roll(seed, site uint64, class uint8, n int64) float64 {
	h := Mix(Mix(seed^site^uint64(class)<<56) ^ uint64(n))
	return float64(h>>11) / (1 << 53)
}

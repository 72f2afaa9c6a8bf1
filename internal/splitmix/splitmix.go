// Package splitmix is the module's one splitmix64 (Steele, Lea & Flood,
// OOPSLA 2014): every seeded fault schedule, load stream, retry jitter and
// journal generation ID draws through it, so a pinned seed means the same
// bits everywhere.
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

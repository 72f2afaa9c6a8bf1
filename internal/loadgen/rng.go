package loadgen

import "repro/internal/splitmix"

// rng is a splitmix64 PRNG: tiny, fast, and fully determined by its seed,
// which is what makes replayable schedules and byte-for-byte reproducible
// reports possible. Every randomized choice in this package — arrival
// jitter, service-time spread, retry jitter — flows through one of these,
// never through math/rand's global (ambient) state.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// next returns the next 64 random bits.
func (r *rng) next() uint64 { return splitmix.Next(&r.state) }

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// split derives an independent stream, so two consumers (say, the schedule
// builder and the service-time sampler) cannot perturb each other's draws
// when one of them changes how many values it consumes.
func (r *rng) split() *rng {
	return newRNG(r.next() ^ 0xd1b54a32d192ed03)
}

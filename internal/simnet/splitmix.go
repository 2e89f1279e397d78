package simnet

import "math/rand"

// Per-node randomness: every node owns a deterministic RNG stream derived
// from (network seed, node id) with SplitMix64. Because a node's draws come
// only from its own stream, its stochastic behaviour (mining delays, gossip
// peer choices, churn timing, …) depends on the seed and on what *that
// node* does — not on how events from unrelated nodes happen to interleave
// in the global queue. That is what makes trial-level parallelism and
// targeted protocol changes reproducible: touching one node's schedule no
// longer perturbs every other node's random choices.
//
// Seeding scheme (documented for reproducibility):
//
//	networkStream = SplitMix64(mix64(seed))
//	nodeStream(i) = SplitMix64(mix64(mix64(seed) + (i+1)·0x9E3779B97F4A7C15))
//
// where mix64 is one stateless SplitMix64 output step. The outer mix64 is
// load-bearing: SplitMix64 walks its state in golden-ratio increments, so
// seeding node i at base + (i+1)·golden64 directly would make node i+1's
// stream exactly node i's stream shifted by one draw — perfectly correlated
// neighbours. Whitening the combined value scatters the starting states off
// that lattice, so distinct node ids get effectively independent streams.

const golden64 = 0x9E3779B97F4A7C15

// SplitMix64 is the tiny, fast, well-distributed PRNG from Steele et al.,
// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014). It
// implements rand.Source64, so it can back a math/rand.Rand.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a source whose stream is determined entirely by
// seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden64
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// float64 returns a value in [0, 1), the one math/rand's Rand.Float64
// draws from the same source: a node's substrate stream is a bare
// SplitMix64, without the 48 B Rand wrapper, and must draw the numbers
// the wrapper drew.
func (s *SplitMix64) float64() float64 {
	for {
		// The division rounds up to 1 for Int63 values within 2⁹ of 2⁶³;
		// like math/rand, draw again.
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// int63n returns a value in [0, n) for n > 0, the one math/rand's
// Rand.Int63n draws from the same source: a mask for a power of two,
// otherwise rejection of the raw draws above the largest multiple of n.
func (s *SplitMix64) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	for {
		if v := s.Int63(); v <= max {
			return v % n
		}
	}
}

// Seed implements rand.Source.
//
//reach:rand.Source requires it; streams are seeded at construction
func (s *SplitMix64) Seed(seed int64) { s.state = uint64(seed) }

// Mix64 is one stateless SplitMix64 output step, used to whiten raw seeds
// before they pick a stream.
func Mix64(x uint64) uint64 { return mix64(x) }

// SaltedRand returns the stream SplitMix64(Mix64(Mix64(seed) ^ salt)): one
// user-facing seed split into independent sub-streams, one per salt, off
// SplitMix64's golden-ratio lattice. Fault plans (simnet/fault) and
// workload schedules (internal/workload) draw from it, each under its own
// salts, so their draws never perturb the network's substrate and node
// streams, and protocol changes never shift a plan or the offered load.
func SaltedRand(seed int64, salt uint64) *rand.Rand {
	return rand.New(NewSplitMix64(mix64(mix64(uint64(seed)) ^ salt)))
}

// mix64 is one stateless SplitMix64 output step, used to whiten raw seeds
// before they pick a stream.
func mix64(x uint64) uint64 {
	x += golden64
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// networkRand returns the source of the network-level stream (stream 0):
// substrate draws such as loss and jitter on a single heap, plus
// harness-level workload generation through Network.Rand.
func networkRand(seed int64) *SplitMix64 {
	return NewSplitMix64(mix64(uint64(seed)))
}

// nodeRand returns node id's private stream for the given network seed.
func nodeRand(seed int64, id NodeID) *rand.Rand {
	return rand.New(NewSplitMix64(mix64(mix64(uint64(seed)) + (uint64(id)+1)*golden64)))
}

// substrateRand returns node id's *substrate* stream for the sharded
// engine: loss, jitter, and fault draws for messages the node sends. The
// single-heap engine serves those draws from the shared network stream in
// global send order; under parallel shards there is no global order, so
// each sender draws from a private stream whose consumption follows the
// node's own deterministic event order. The salt (a second whitening pass
// XORed with an arbitrary constant) keeps the stream disjoint from both
// nodeRand and networkRand for the same seed and id.
func substrateRand(seed int64, id NodeID) *SplitMix64 {
	base := mix64(mix64(uint64(seed))^0x5EEDFACE0FCAFE01) + (uint64(id)+1)*golden64
	return NewSplitMix64(mix64(base))
}

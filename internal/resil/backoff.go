package resil

import (
	"time"

	"repro/internal/simnet"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter. The jitter is not consumed from the node's shared RNG stream —
// that would make retry timing perturb every later draw on the node and
// couple unrelated subsystems through the fault schedule. Instead each
// delay hashes (network seed, node id, call sequence, attempt) through the
// same SplitMix64 finalizer that whitens the per-node streams, so the
// sequence is a pure function of those four values: bit-identical across
// trials, worker counts, and replays, which TestQuickBackoffDeterministic
// pins.
type Backoff struct {
	key uint64 // seed and node id, pre-mixed
}

const (
	// backoffBase, the first retry delay before jitter, is half the RTO
	// floor: a retry goes out well before a second timeout could fire.
	backoffBase = 100 * time.Millisecond
	// backoffCap bounds the doubling. maxAttempts stops a Client's ladder
	// at 200ms first, so the cap binds only on longer ladders.
	backoffCap = 5 * time.Second
	// backoffJitter (±25%) spreads out clients that timed out together.
	backoffJitter = 0.25
)

// NewBackoff derives the delay generator for one (network seed, node)
// pair.
func NewBackoff(seed int64, node simnet.NodeID) Backoff {
	return Backoff{
		key: simnet.Mix64(simnet.Mix64(uint64(seed)) ^ (uint64(node)+1)*0x9E3779B97F4A7C15),
	}
}

// Delay returns the pause before retry `attempt` (1 = first retry) of the
// call-th operation issued by this client: backoffBase·2^(attempt−1)
// capped at backoffCap, jittered by ±backoffJitter.
func (b Backoff) Delay(call uint64, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	base := backoffBase
	for i := 1; i < attempt && base < backoffCap; i++ {
		base *= 2
	}
	if base > backoffCap {
		base = backoffCap
	}
	h := simnet.Mix64(b.key ^ call*0x9E3779B97F4A7C15 ^ uint64(attempt))
	// Map the top 53 bits to a uniform [0,1), then to [−Jitter, +Jitter].
	u := float64(h>>11) / (1 << 53)
	d := time.Duration(float64(base) * (1 + backoffJitter*(2*u-1)))
	if d < 0 {
		d = 0
	}
	return d
}

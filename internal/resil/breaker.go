package resil

import "time"

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState int

const (
	// BreakerClosed: traffic flows; outcomes are being scored.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer is suspected dead; calls fail fast until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is in flight; its outcome decides
	// between closing and re-opening with a doubled cooldown.
	BreakerHalfOpen
)

// Breaker is a per-peer failure detector. It opens on either of two
// signals: a run of consecutive failures (a dead peer times out every
// attempt), or a decayed success rate sinking below the floor (a flaky
// peer that still answers occasionally — consecutive counting alone never
// catches it). Time is the caller's virtual clock, passed in explicitly,
// so the breaker itself holds no clock and stays deterministic.
type Breaker struct {
	state    BreakerState
	consec   int     // consecutive failures
	rate     float64 // decayed success rate, starts optimistic at 1
	samples  int
	cooldown time.Duration
	openedAt time.Duration // virtual time the current open period started
	opens    int
}

const (
	// breakerTrip consecutive failures open the breaker. It equals
	// maxAttempts: one operation timing out on every attempt suspects the
	// peer.
	breakerTrip = 3
	// rateDecay is the EWMA factor for the success rate: each outcome
	// carries 20% weight, so ~8 outcomes dominate the estimate.
	rateDecay = 0.8
	// breakerMinSamples, the window rateDecay weighs, gates the rate trip
	// path so a young history cannot trip it.
	breakerMinSamples = 8
	// breakerSuccessFloor is the decayed success rate below which the
	// breaker opens. From a clean start a peer that never fails breakerTrip
	// times in a row stays above 0.26, so the floor catches a peer that
	// fails again soon after a probe closed its breaker.
	breakerSuccessFloor = 0.2
	// breakerCooldown, the first open period, is five initial RTOs: long
	// enough to save real timeouts, short enough to re-probe a restarted
	// peer soon.
	breakerCooldown = 5 * time.Second
	// breakerMaxCooldown caps the doubling: a peer failing every probe is
	// still probed once a minute.
	breakerMaxCooldown = 60 * time.Second
)

// NewBreaker returns a closed breaker with an optimistic history.
func NewBreaker() *Breaker {
	return &Breaker{rate: 1, cooldown: breakerCooldown}
}

// Allow reports whether a new call to the peer may be issued at virtual
// time now. An open breaker whose cooldown has elapsed admits exactly one
// probe (transitioning to half-open); further calls fail fast until the
// probe's outcome arrives.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now-b.openedAt >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // BreakerHalfOpen: probe outstanding
		return false
	}
}

// Success records a completed call. A half-open probe success closes the
// breaker and resets the cooldown ladder.
func (b *Breaker) Success() {
	b.consec = 0
	b.observe(1)
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.cooldown = breakerCooldown
	}
}

// Failure records a failed call at virtual time now, opening the breaker
// when a trip condition holds. A half-open probe failure re-opens with a
// doubled cooldown (capped at breakerMaxCooldown). Reports whether this
// failure transitioned the breaker into the open state.
func (b *Breaker) Failure(now time.Duration) bool {
	b.consec++
	b.observe(0)
	switch b.state {
	case BreakerHalfOpen:
		b.cooldown *= 2
		if b.cooldown > breakerMaxCooldown {
			b.cooldown = breakerMaxCooldown
		}
		b.state = BreakerOpen
		b.openedAt = now
		b.opens++
		return true
	case BreakerClosed:
		if b.consec >= breakerTrip ||
			(b.samples >= breakerMinSamples && b.rate < breakerSuccessFloor) {
			b.state = BreakerOpen
			b.openedAt = now
			b.opens++
			return true
		}
	}
	return false
}

func (b *Breaker) observe(outcome float64) {
	b.rate = rateDecay*b.rate + (1-rateDecay)*outcome
	b.samples++
}

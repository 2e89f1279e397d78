// Package resil is the shared resilience layer for RPC client paths: an
// adaptive Jacobson/Karels RTO estimator fed from per-call round-trip
// times, capped exponential retry backoff with deterministic jitter, a
// per-peer failure detector (circuit breaker) that suspects dead peers
// instead of burning full timeouts on them, and tail-latency hedging in
// the Dean & Barroso style (a second attempt launched at the estimated
// p95, first response wins, loser cancelled).
//
// Everything is seed-deterministic. The layer draws no wall clock and no
// global randomness: RTO state is a pure function of the observed sample
// sequence, backoff jitter is a pure hash of (network seed, node id, call,
// attempt) from the same SplitMix64 family that seeds Node.Rand(), and the
// breaker runs on virtual time. Two trials with the same seed — at any
// worker count — make identical retry, hedge, and fast-fail decisions.
//
// A layer holds the simnet.Caller that Wrap(rpc, cfg) returns. A zero
// Config is the off switch: Wrap then returns the *simnet.RPCNode itself,
// so every call is exactly one simnet RPC with the caller's fixed timeout,
// issuing no extra events, consuming no randomness and registering no
// metric. Wiring the layer through a subsystem behind a
// disabled-by-default config field therefore leaves existing goldens
// byte-identical.
//
// Metric names (network-scoped, see DESIGN.md §6):
//
//	resil.rto_s         histogram of the RTO each attempt was issued with (s)
//	resil.hedge.fired   hedged second attempts launched
//	resil.hedge.won     hedged attempts that beat the primary
//	resil.breaker.open  breaker transitions into the open state
//	resil.retry.count   timeout-driven retransmits
//	resil.fastfail.count calls refused locally by an open breaker
package resil

import "time"

// Config tunes a resilient RPC client. The zero value disables the layer
// entirely (Wrap returns the raw RPC node); Defaults() returns the enabled
// configuration the X16 resilient mode runs with.
type Config struct {
	// Enabled turns the layer on. When false Wrap ignores every other
	// field and returns the raw RPC node, whose calls use the caller's
	// fixed timeout.
	Enabled bool
	// MaxAttempts bounds the total timeout-driven tries per operation,
	// including the first (hedges are not counted). Default 3.
	MaxAttempts int
	RTO         RTOConfig
	Backoff     BackoffConfig
	Breaker     BreakerConfig
	Hedge       HedgeConfig
	// Classify, when non-nil, inspects each successful response payload
	// for an application-level refusal (e.g. overload.Shed, via
	// overload.Classify). A non-nil classification is an explicitly
	// retryable outcome from a live peer, handled unlike a failure: the
	// breaker records a success (a server deliberately shedding load is
	// alive — shed storms must never trip breakers and amplify the
	// outage), no RTT sample is fed (sheds return in near-zero service
	// time and would drag the estimator below real service RTTs), and the
	// retry waits for the server's RetryAfterHint() — when the error
	// carries one — or the backoff, whichever is longer. When attempts are
	// exhausted the operation fails with the classified error. Nil keeps
	// historical behaviour bit for bit.
	Classify func(resp any) error
}

// RTOConfig clamps the Jacobson/Karels estimator.
type RTOConfig struct {
	Initial time.Duration // RTO before the first sample (default 1s)
	Min     time.Duration // lower clamp (default 200ms)
	Max     time.Duration // upper clamp, also caps timeout doubling (default 10s)
}

// BackoffConfig shapes the retry delay sequence.
type BackoffConfig struct {
	Base time.Duration // first retry delay before jitter (default 100ms)
	Cap  time.Duration // exponential growth ceiling (default 5s)
	// Jitter is the ± fraction applied to each delay (default 0.25). The
	// draw is a pure hash of (seed, node, call, attempt) — see Backoff.
	Jitter float64
}

// BreakerConfig tunes the per-peer failure detector.
type BreakerConfig struct {
	// Disabled turns the breaker off while the rest of the layer stays on.
	Disabled bool
	// Trip opens the breaker after this many consecutive failures
	// (default 3).
	Trip int
	// MinSamples gates the decayed-rate trip path: the success-rate test
	// only applies once this many outcomes were observed (default 8).
	MinSamples int
	// SuccessFloor opens the breaker when the decayed success rate falls
	// below it (default 0.2).
	SuccessFloor float64
	Cooldown     time.Duration // first open duration (default 5s)
	MaxCooldown  time.Duration // cooldown doubling ceiling (default 60s)
}

// HedgeConfig tunes tail-latency hedging.
type HedgeConfig struct {
	// Disabled turns hedging off while the rest of the layer stays on.
	Disabled bool
	// MinSamples is how many RTT samples a peer's estimator needs before
	// hedging against it (default 4) — hedging blind would double traffic
	// for nothing.
	MinSamples int
	// MinDelay floors the hedge launch delay (default 50ms) so a
	// microsecond-scale p95 estimate cannot degenerate into always-hedge.
	MinDelay time.Duration
}

// Defaults returns the enabled configuration used by X16's resilient mode.
func Defaults() Config {
	return Config{Enabled: true}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	if c.RTO.Initial == 0 {
		c.RTO.Initial = time.Second
	}
	if c.RTO.Min == 0 {
		c.RTO.Min = 200 * time.Millisecond
	}
	if c.RTO.Max == 0 {
		c.RTO.Max = 10 * time.Second
	}
	if c.Backoff.Base == 0 {
		c.Backoff.Base = 100 * time.Millisecond
	}
	if c.Backoff.Cap == 0 {
		c.Backoff.Cap = 5 * time.Second
	}
	if c.Backoff.Jitter == 0 {
		c.Backoff.Jitter = 0.25
	}
	if c.Breaker.Trip == 0 {
		c.Breaker.Trip = 3
	}
	if c.Breaker.MinSamples == 0 {
		c.Breaker.MinSamples = 8
	}
	if c.Breaker.SuccessFloor == 0 {
		c.Breaker.SuccessFloor = 0.2
	}
	if c.Breaker.Cooldown == 0 {
		c.Breaker.Cooldown = 5 * time.Second
	}
	if c.Breaker.MaxCooldown == 0 {
		c.Breaker.MaxCooldown = 60 * time.Second
	}
	if c.Hedge.MinSamples == 0 {
		c.Hedge.MinSamples = 4
	}
	if c.Hedge.MinDelay == 0 {
		c.Hedge.MinDelay = 50 * time.Millisecond
	}
	return c
}

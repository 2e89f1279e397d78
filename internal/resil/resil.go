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
// Config has two settings, Enabled and Classify; the tuning is package
// constants beside the code that uses it.
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

// Config switches a resilient RPC client on and says how to read a
// server's refusal. The zero value disables the layer entirely (Wrap
// returns the raw RPC node); Defaults() returns the enabled configuration
// the X16 resilient mode runs with.
type Config struct {
	// Enabled turns the layer on. When false Wrap ignores every other
	// field and returns the raw RPC node, whose calls use the caller's
	// fixed timeout.
	Enabled bool
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

// Defaults returns the enabled configuration used by X16's resilient mode.
func Defaults() Config { return Config{Enabled: true} }

package resil

import "time"

// Estimator is a Jacobson/Karels retransmission-timeout estimator
// (RFC 6298 constants): on each round-trip sample R,
//
//	RTTVAR ← (1−β)·RTTVAR + β·|SRTT − R|   (β = 1/4)
//	SRTT   ← (1−α)·SRTT + α·R              (α = 1/8)
//	RTO    ← clamp(SRTT + max(G, 4·RTTVAR), rtoMin, rtoMax)
//
// with the first sample initializing SRTT = R, RTTVAR = R/2, and a
// granularity floor G of 10ms on the variance term. A timeout doubles the
// RTO (Karn's backoff), clamped at rtoMax; the next valid sample recomputes
// it from SRTT/RTTVAR, dropping the boost. Karn's rule on sampling is the
// caller's side of the contract: Client feeds no samples from operations
// that retransmitted (see client.go for why hedged completions still
// sample).
//
// The estimator state is a pure function of the call sequence made on it —
// no clock, no randomness — which TestQuickRTOEstimatorBounded pins.
type Estimator struct {
	srtt    float64 // seconds
	rttvar  float64 // seconds
	samples int
	rto     time.Duration
}

const (
	// rtoGranularity is the variance floor G: below it the 4·RTTVAR term
	// of a nearly jitter-free link would collapse the RTO onto SRTT and
	// every on-time reply would race its own timeout.
	rtoGranularity = 10 * time.Millisecond
	// rtoInitial is RFC 6298's one-second RTO before any sample, paid
	// until the peer is measured or the Client seeds a prior.
	rtoInitial = time.Second
	// rtoMin is the lower clamp: Linux TCP's 200ms, since RFC 6298's 1s
	// would make every timeout on a fast simulated link a full second.
	rtoMin = 200 * time.Millisecond
	// rtoMax is the upper clamp, which also caps Karn's doubling: RFC
	// 6298's 60s would stall a request for a minute on one dead peer.
	rtoMax = 10 * time.Second
)

// NewEstimator returns an estimator at the initial RTO.
func NewEstimator() *Estimator {
	return &Estimator{rto: rtoInitial}
}

// Sample feeds one measured round trip and recomputes the RTO, clearing
// any timeout backoff.
func (e *Estimator) Sample(rtt time.Duration) {
	r := rtt.Seconds()
	if r < 0 {
		r = 0
	}
	if e.samples == 0 {
		e.srtt = r
		e.rttvar = r / 2
	} else {
		d := e.srtt - r
		if d < 0 {
			d = -d
		}
		e.rttvar = 0.75*e.rttvar + 0.25*d
		e.srtt = 0.875*e.srtt + 0.125*r
	}
	e.samples++
	v := 4 * e.rttvar
	if g := rtoGranularity.Seconds(); v < g {
		v = g
	}
	e.rto = clampRTO(time.Duration((e.srtt + v) * float64(time.Second)))
}

// SeedPrior warms a fresh estimator with a prior RTO — the Client passes
// its cross-peer estimate so a never-contacted peer does not pay the
// cold-start rtoInitial (and then Karn-double it) on its first attempts.
// Only effective before the first sample; the first real sample replaces
// it entirely per the first-sample rule.
func (e *Estimator) SeedPrior(rto time.Duration) {
	if e.samples == 0 {
		e.rto = clampRTO(rto)
	}
}

// OnTimeout doubles the RTO (Karn's exponential timeout backoff), clamped
// at rtoMax. The boost persists until the next valid sample.
func (e *Estimator) OnTimeout() {
	e.rto = clampRTO(e.rto * 2)
}

// RTO returns the current retransmission timeout, always within
// [rtoMin, rtoMax].
func (e *Estimator) RTO() time.Duration { return e.rto }

// Samples returns how many round trips have been fed in.
func (e *Estimator) Samples() int { return e.samples }

// SRTT returns the smoothed round-trip estimate (zero before the first
// sample).
func (e *Estimator) SRTT() time.Duration {
	return time.Duration(e.srtt * float64(time.Second))
}

// P95 estimates the 95th-percentile round trip as SRTT + 2·RTTVAR — the
// hedge launch point. Before any sample it falls back to the current RTO,
// and it never exceeds the RTO (hedging after the retransmit fires would
// be pure waste).
func (e *Estimator) P95() time.Duration {
	if e.samples == 0 {
		return e.rto
	}
	p := time.Duration((e.srtt + 2*e.rttvar) * float64(time.Second))
	if p > e.rto {
		p = e.rto
	}
	if p < 0 {
		p = 0
	}
	return p
}

func clampRTO(d time.Duration) time.Duration {
	if d < rtoMin {
		return rtoMin
	}
	if d > rtoMax {
		return rtoMax
	}
	return d
}

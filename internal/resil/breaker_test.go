package resil

import (
	"testing"
	"time"
)

func TestBreakerConsecutiveTrip(t *testing.T) {
	b := NewBreaker()
	now := time.Duration(0)
	if !b.Allow(now) {
		t.Fatal("fresh breaker refused a call")
	}
	for i := 0; i < breakerTrip-1; i++ {
		if b.Failure(now) {
			t.Fatalf("breaker opened after %d failures, trip is %d", i+1, breakerTrip)
		}
	}
	if !b.Failure(now) {
		t.Fatal("breaker did not open at the trip threshold")
	}
	if b.state != BreakerOpen || b.opens != 1 {
		t.Fatalf("state=%v opens=%d after trip", b.state, b.opens)
	}
	if b.Allow(now + breakerCooldown/2) {
		t.Fatal("open breaker admitted a call before cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker()
	now := time.Duration(0)
	for i := 0; i < breakerTrip; i++ {
		b.Failure(now)
	}
	probeAt := now + breakerCooldown
	if !b.Allow(probeAt) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", b.state)
	}
	if b.Allow(probeAt) {
		t.Fatal("second call admitted while probe outstanding")
	}
	// Probe failure: re-open with doubled cooldown.
	if !b.Failure(probeAt) {
		t.Fatal("half-open probe failure did not re-open")
	}
	if b.Allow(probeAt + breakerCooldown) {
		t.Fatal("re-opened breaker ignored the doubled cooldown")
	}
	if !b.Allow(probeAt + 2*breakerCooldown) {
		t.Fatal("doubled cooldown elapsed but no probe admitted")
	}
	// Probe success: closed, ladder reset.
	b.Success()
	if b.state != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.state)
	}
	if b.cooldown != breakerCooldown {
		t.Fatalf("cooldown ladder not reset: %v", b.cooldown)
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	b := NewBreaker()
	now := time.Duration(0)
	for i := 0; i < breakerTrip; i++ {
		b.Failure(now)
	}
	// Fail every probe; the cooldown must stop doubling at MaxCooldown.
	for i := 0; i < 8; i++ {
		now += b.cooldown
		if !b.Allow(now) {
			t.Fatalf("probe %d not admitted after cooldown", i)
		}
		b.Failure(now)
	}
	if b.cooldown != breakerMaxCooldown {
		t.Fatalf("cooldown = %v, want capped at %v", b.cooldown, breakerMaxCooldown)
	}
}

func TestBreakerRateTrip(t *testing.T) {
	b := NewBreaker()
	now := time.Duration(0)
	// A 2:1 failure ratio holds the decayed rate between 0.26 and 0.41,
	// above the 0.2 floor, and never strings breakerTrip failures
	// together: the breaker must stay closed however long it runs.
	for i := 0; i < 40; i++ {
		b.Success()
		b.Failure(now)
		b.Failure(now)
	}
	if b.state != BreakerClosed {
		t.Fatalf("breaker opened at a 1-in-3 success rate (rate %.3f), floor is %v", b.rate, breakerSuccessFloor)
	}
	// A run of breakerTrip failures opens it; a probe success closes it
	// again on top of a history the rate still remembers. From there the
	// rate path must re-open the breaker before the consecutive counter
	// reaches breakerTrip.
	for i := 0; i < breakerTrip; i++ {
		b.Failure(now)
	}
	now += breakerCooldown
	if !b.Allow(now) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	b.Success()
	opened := false
	for i := 0; i < breakerTrip-1 && !opened; i++ {
		opened = b.Failure(now)
	}
	if !opened || b.consec >= breakerTrip {
		t.Fatalf("decayed-rate trip: opened=%v consec=%d rate=%.3f", opened, b.consec, b.rate)
	}
}

// TestBreakerMinSamplesGate: with fewer than breakerMinSamples outcomes
// the rate path holds fire even with the decayed rate under the floor; the
// outcome that completes the window opens the breaker on the rate alone.
func TestBreakerMinSamplesGate(t *testing.T) {
	b := NewBreaker()
	b.rate = 0 // a pessimistic history the sample count does not back yet
	gated := 0
	for i := 1; i < breakerMinSamples; i++ {
		if i%3 == 0 { // never breakerTrip failures in a row
			b.Success()
			continue
		}
		if b.Failure(0) {
			t.Fatalf("rate path tripped on outcome %d (rate %.3f), breakerMinSamples is %d", i, b.rate, breakerMinSamples)
		}
		if b.rate < breakerSuccessFloor {
			gated++
		}
	}
	if gated == 0 {
		t.Fatal("the rate never sank under the floor: the gate was not tested")
	}
	if !b.Failure(0) || b.consec >= breakerTrip {
		t.Fatalf("outcome %d did not open on the rate: state=%v consec=%d", breakerMinSamples, b.state, b.consec)
	}
}

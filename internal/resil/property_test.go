package resil

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

// quickCfg bounds the draw count and fixes the generator seed so failures
// reproduce.
func quickCfg(seed int64, count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickRTOEstimatorBounded: whatever sample sequence the estimator is
// fed — including timeout doublings interleaved after every sample — the
// published RTO never leaves the [rtoMin, rtoMax] clamp, and the whole
// state trajectory is a pure function of the sequence: a second estimator
// fed the same samples reports identical RTOs at every step.
func TestQuickRTOEstimatorBounded(t *testing.T) {
	prop := func(raw []uint32, timeouts uint8) bool {
		a, b := NewEstimator(), NewEstimator()
		for i, r := range raw {
			// Samples span negative to far beyond rtoMax (raw is up to ~4295s).
			s := time.Duration(int64(r))*time.Millisecond - time.Second
			a.Sample(s)
			b.Sample(s)
			if a.RTO() != b.RTO() || a.SRTT() != b.SRTT() {
				return false
			}
			if a.RTO() < rtoMin || a.RTO() > rtoMax {
				return false
			}
			if i%4 == int(timeouts)%4 {
				a.OnTimeout()
				b.OnTimeout()
				if a.RTO() != b.RTO() || a.RTO() > rtoMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(4004, 50)); err != nil {
		t.Error(err)
	}
}

// TestQuickBackoffDeterministic: the retry delay is a pure function of
// (network seed, node id, call, attempt) — two independently constructed
// schedules agree everywhere — and every delay stays inside the jittered
// exponential envelope [backoffBase·(1−J), backoffCap·(1+J)].
func TestQuickBackoffDeterministic(t *testing.T) {
	lo := time.Duration(float64(backoffBase) * (1 - backoffJitter))
	hi := time.Duration(float64(backoffCap) * (1 + backoffJitter))
	prop := func(seed int64, node uint16, call uint64, rawAttempt uint8) bool {
		a := NewBackoff(seed, simnet.NodeID(node))
		b := NewBackoff(seed, simnet.NodeID(node))
		attempt := 1 + int(rawAttempt)%10
		d := a.Delay(call, attempt)
		if d != b.Delay(call, attempt) {
			return false
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(prop, quickCfg(5005, 200)); err != nil {
		t.Error(err)
	}
}

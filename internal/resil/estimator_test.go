package resil

import (
	"testing"
	"time"
)

func TestEstimatorFirstSample(t *testing.T) {
	e := NewEstimator()
	if got := e.RTO(); got != time.Second {
		t.Fatalf("initial RTO = %v, want the 1s default", got)
	}
	if e.Samples() != 0 || e.SRTT() != 0 {
		t.Fatalf("fresh estimator has state: samples=%d srtt=%v", e.Samples(), e.SRTT())
	}
	e.Sample(400 * time.Millisecond)
	// First sample: SRTT = R, RTTVAR = R/2, RTO = R + 4·(R/2) = 3R.
	if got := e.SRTT(); got != 400*time.Millisecond {
		t.Fatalf("SRTT after first sample = %v, want 400ms", got)
	}
	if got := e.RTO(); got != 1200*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 1.2s", got)
	}
}

func TestEstimatorSmoothing(t *testing.T) {
	e := NewEstimator()
	e.Sample(100 * time.Millisecond)
	e.Sample(100 * time.Millisecond)
	// Identical samples shrink the variance; the RTO must decrease toward
	// SRTT + floor while staying clamped at Min.
	first := e.RTO()
	for i := 0; i < 20; i++ {
		e.Sample(100 * time.Millisecond)
	}
	if got := e.RTO(); got >= first {
		t.Fatalf("RTO did not shrink on a steady link: %v -> %v", first, got)
	}
	if got := e.RTO(); got < rtoMin {
		t.Fatalf("RTO %v below Min %v", got, rtoMin)
	}
}

func TestEstimatorClampAndNegative(t *testing.T) {
	e := NewEstimator()
	e.Sample(time.Hour) // absurd sample clamps at Max
	if got := e.RTO(); got != rtoMax {
		t.Fatalf("RTO = %v, want clamp at Max %v", got, rtoMax)
	}
	e2 := NewEstimator()
	e2.Sample(-time.Second) // negative RTT treated as zero
	if got := e2.RTO(); got != rtoMin {
		t.Fatalf("RTO after negative sample = %v, want Min %v", got, rtoMin)
	}
}

func TestEstimatorKarnBackoff(t *testing.T) {
	e := NewEstimator()
	e.Sample(100 * time.Millisecond) // RTO = 300ms
	r0 := e.RTO()
	e.OnTimeout()
	if got := e.RTO(); got != 2*r0 {
		t.Fatalf("RTO after timeout = %v, want doubled %v", got, 2*r0)
	}
	for i := 0; i < 10; i++ {
		e.OnTimeout()
	}
	if got := e.RTO(); got != rtoMax {
		t.Fatalf("RTO after repeated timeouts = %v, want Max %v", got, rtoMax)
	}
	// The next valid sample drops the boost entirely.
	e.Sample(100 * time.Millisecond)
	if got := e.RTO(); got >= rtoMax {
		t.Fatalf("sample did not clear the timeout boost: RTO = %v", got)
	}
}

func TestEstimatorP95(t *testing.T) {
	e := NewEstimator()
	if got := e.P95(); got != e.RTO() {
		t.Fatalf("pre-sample P95 = %v, want RTO fallback %v", got, e.RTO())
	}
	e.Sample(100 * time.Millisecond)
	if got := e.P95(); got > e.RTO() {
		t.Fatalf("P95 %v exceeds RTO %v", got, e.RTO())
	}
	if got := e.P95(); got <= 0 {
		t.Fatalf("P95 = %v, want positive", got)
	}
}

func TestEstimatorSeedPrior(t *testing.T) {
	e := NewEstimator()
	e.SeedPrior(300 * time.Millisecond)
	if got := e.RTO(); got != 300*time.Millisecond {
		t.Fatalf("seeded RTO = %v, want 300ms", got)
	}
	e.SeedPrior(time.Hour) // prior is clamped like everything else
	if got := e.RTO(); got != rtoMax {
		t.Fatalf("seeded RTO = %v, want clamp at Max", got)
	}
	e.Sample(100 * time.Millisecond)
	before := e.RTO()
	e.SeedPrior(5 * time.Second) // no effect once sampled
	if got := e.RTO(); got != before {
		t.Fatalf("SeedPrior after a sample moved RTO %v -> %v", before, got)
	}
}

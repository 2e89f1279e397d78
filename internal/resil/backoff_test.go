package resil

import (
	"testing"
	"time"
)

func TestBackoffDeterministic(t *testing.T) {
	a := NewBackoff(42, 7)
	b := NewBackoff(42, 7)
	for call := uint64(1); call <= 5; call++ {
		for attempt := 1; attempt <= 4; attempt++ {
			if a.Delay(call, attempt) != b.Delay(call, attempt) {
				t.Fatalf("same (seed, node, call, attempt) produced different delays")
			}
		}
	}
	// Different node or seed must decorrelate the jitter.
	c := NewBackoff(42, 8)
	d := NewBackoff(43, 7)
	same := 0
	for call := uint64(1); call <= 8; call++ {
		if a.Delay(call, 1) == c.Delay(call, 1) {
			same++
		}
		if a.Delay(call, 1) == d.Delay(call, 1) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("jitter identical across different nodes and seeds")
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	bo := NewBackoff(1, 1)
	for call := uint64(1); call <= 3; call++ {
		prev := time.Duration(0)
		for attempt := 1; attempt <= 10; attempt++ {
			d := bo.Delay(call, attempt)
			lo := time.Duration(float64(backoffBase) * (1 - backoffJitter))
			hi := time.Duration(float64(backoffCap) * (1 + backoffJitter))
			if d < lo || d > hi {
				t.Fatalf("delay %v outside jittered envelope [%v, %v]", d, lo, hi)
			}
			// The un-jittered base doubles, so the envelope midpoints grow
			// until the cap; only spot-check monotone growth of the bounds.
			if attempt > 6 && prev > 0 {
				if d > hi {
					t.Fatalf("capped delay %v exceeds %v", d, hi)
				}
			}
			prev = d
		}
	}
	if got := bo.Delay(1, 0); got != bo.Delay(1, 1) {
		t.Fatalf("attempt 0 should clamp to 1: %v vs %v", got, bo.Delay(1, 1))
	}
}

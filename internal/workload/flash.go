package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Flash models a flash crowd: at a scheduled virtual instant one object
// becomes up to Peak× hotter than its baseline popularity (~10³× in X18),
// ramping up linearly and decaying exponentially — the shape of a link
// going viral and then falling off the front page.
//
// The zero value (Peak ≤ 1) is inert: Multiplier is the constant 1 and
// composite samplers built on it reduce to their base distribution.
type Flash struct {
	// Object is the index of the object that goes viral.
	Object int
	// Start is the virtual time the spike begins.
	Start time.Duration
	// Ramp is how long the multiplier takes to climb linearly from 1 to
	// Peak. Zero means an instantaneous jump.
	Ramp time.Duration
	// Peak is the multiplier on the object's baseline request rate at the
	// top of the spike. Peak ≤ 1 disables the flash entirely.
	Peak float64
	// Decay is the post-peak half-life: every Decay after the ramp tops
	// out, the excess (Multiplier − 1) halves. Zero or negative holds the
	// multiplier at Peak for the rest of the run.
	Decay time.Duration
}

// Active reports whether the flash does anything at all.
func (f Flash) Active() bool { return f.Peak > 1 }

// Multiplier returns the object's popularity multiplier at virtual time t:
// 1 before Start, a linear ramp to exactly Peak at Start+Ramp, then
// exponential decay with half-life Decay back toward 1. Allocation-free —
// this is the "flash-crowd tick" the root alloc gate pins.
func (f Flash) Multiplier(t time.Duration) float64 {
	if !f.Active() || t < f.Start {
		return 1
	}
	dt := t - f.Start
	if f.Ramp > 0 && dt < f.Ramp {
		return 1 + (f.Peak-1)*float64(dt)/float64(f.Ramp)
	}
	if f.Decay <= 0 {
		return f.Peak
	}
	dt -= f.Ramp
	return 1 + (f.Peak-1)*math.Exp2(-float64(dt)/float64(f.Decay))
}

// HotZipf composes a base Zipf popularity with a flash-crowd multiplier on
// one object. The composition preserves per-object absolute rates: scale
// the overall arrival rate by WeightFactor(t) and draw objects with
// DrawAt(t), and every cold object keeps exactly its baseline request
// rate while the hot object's rate is exactly Multiplier(t)× baseline.
type HotZipf struct {
	base *Zipf
	f    Flash
	hotP float64 // base probability of the flash object
}

// NewHotZipf prepares the composite sampler. An inert Flash (Peak ≤ 1)
// yields a sampler identical to the base.
func NewHotZipf(base *Zipf, f Flash) *HotZipf {
	h := &HotZipf{base: base, f: f}
	if f.Active() {
		if f.Object < 0 || f.Object >= base.N() {
			panic(fmt.Sprintf("workload: flash object %d outside catalog [0, %d)", f.Object, base.N()))
		}
		h.hotP = base.P(f.Object)
	}
	return h
}

// WeightFactor returns the total-demand scale at time t:
// 1 + (Multiplier(t)−1)·P(hot). Multiplying the base arrival rate by it
// models the crowd as *extra* traffic (new requesters showing up), not a
// redistribution of existing traffic.
func (h *HotZipf) WeightFactor(t time.Duration) float64 {
	return 1 + (h.f.Multiplier(t)-1)*h.hotP
}

// MaxWeightFactor returns the supremum of WeightFactor — the thinning
// bound Generate rejects against.
func (h *HotZipf) MaxWeightFactor() float64 {
	if !h.f.Active() {
		return 1
	}
	return 1 + (h.f.Peak-1)*h.hotP
}

// DrawAt samples one object at virtual time t: with probability
// excess/(1+excess) the hot object directly (the flash crowd's share of
// total demand, excess = (m(t)−1)·P(hot)), otherwise a plain base draw —
// which still includes the hot object at its baseline share. O(1), zero
// allocations.
func (h *HotZipf) DrawAt(t time.Duration, rng *rand.Rand) int {
	if m := h.f.Multiplier(t); m > 1 {
		extra := (m - 1) * h.hotP
		if rng.Float64()*(1+extra) < extra {
			return h.f.Object
		}
	}
	return h.base.Draw(rng)
}

package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/simnet"
)

func defaultFlash() Flash {
	return Flash{
		Object: 7,
		Start:  10 * time.Minute,
		Ramp:   2 * time.Minute,
		Peak:   1000,
		Decay:  3 * time.Minute,
	}
}

// TestFlashMultiplierShape: 1 before Start, linear ramp to exactly Peak at
// Start+Ramp, then half-life decay back toward 1.
func TestFlashMultiplierShape(t *testing.T) {
	f := defaultFlash()
	if m := f.Multiplier(0); m != 1 {
		t.Errorf("pre-flash multiplier %g, want 1", m)
	}
	if m := f.Multiplier(f.Start); m != 1 {
		t.Errorf("ramp start multiplier %g, want 1", m)
	}
	if m := f.Multiplier(f.Start + f.Ramp/2); math.Abs(m-(1+(f.Peak-1)/2)) > 1e-9 {
		t.Errorf("mid-ramp multiplier %g, want %g", m, 1+(f.Peak-1)/2)
	}
	if m := f.Multiplier(f.Start + f.Ramp); m != f.Peak {
		t.Errorf("peak multiplier %g, want exactly %g", m, f.Peak)
	}
	// One half-life into the decay, the excess has exactly halved.
	if m := f.Multiplier(f.Start + f.Ramp + f.Decay); math.Abs(m-(1+(f.Peak-1)/2)) > 1e-9 {
		t.Errorf("one-half-life multiplier %g, want %g", m, 1+(f.Peak-1)/2)
	}
	// The spike always decays toward, but never below, baseline.
	prev := math.Inf(1)
	for i := 0; i < 200; i++ {
		at := f.Start + f.Ramp + time.Duration(i)*time.Minute
		m := f.Multiplier(at)
		if m < 1 || m > prev {
			t.Fatalf("decay not monotone toward 1 at %v: %g (prev %g)", at, m, prev)
		}
		prev = m
	}
}

// TestFlashEdgeConfigs: zero ramp jumps straight to Peak; zero decay holds
// it; the zero value is inert.
func TestFlashEdgeConfigs(t *testing.T) {
	jump := Flash{Object: 0, Start: time.Minute, Peak: 10, Decay: time.Minute}
	if m := jump.Multiplier(time.Minute); m != 10 {
		t.Errorf("zero-ramp multiplier at Start %g, want 10", m)
	}
	hold := Flash{Object: 0, Start: time.Minute, Ramp: time.Minute, Peak: 10}
	if m := hold.Multiplier(time.Hour); m != 10 {
		t.Errorf("zero-decay multiplier %g, want held at 10", m)
	}
	var inert Flash
	if inert.Active() {
		t.Error("zero Flash reports active")
	}
	if m := inert.Multiplier(time.Hour); m != 1 {
		t.Errorf("inert multiplier %g, want 1", m)
	}
}

// TestHotZipfRatePreservation: the composite keeps every cold object at
// its baseline absolute rate and multiplies the hot object's by m(t) —
// checked through the WeightFactor/DrawAt identity on empirical draws.
func TestHotZipfRatePreservation(t *testing.T) {
	z := NewZipf(8, 1.1)
	f := defaultFlash()
	h := NewHotZipf(z, f)
	at := f.Start + f.Ramp // peak
	m := f.Multiplier(at)
	w := h.WeightFactor(at)
	if want := 1 + (m-1)*z.P(f.Object); math.Abs(w-want) > 1e-12 {
		t.Fatalf("WeightFactor %g, want %g", w, want)
	}
	if h.MaxWeightFactor() != w {
		t.Errorf("MaxWeightFactor %g, want peak factor %g", h.MaxWeightFactor(), w)
	}
	rng := simnet.SaltedRand(11, 0x77)
	const n = 400000
	hotCount := 0
	coldCount := 0 // object 0, the most popular cold object
	for i := 0; i < n; i++ {
		switch h.DrawAt(at, rng) {
		case f.Object:
			hotCount++
		case 0:
			coldCount++
		}
	}
	// Absolute rate of object o = (arrival rate · w) · P_draw(o). With the
	// arrival scale w, the hot object's effective share of baseline-rate
	// units is m·P(hot), and a cold object keeps P(cold).
	hotRate := float64(hotCount) / n * w
	if want := m * z.P(f.Object); math.Abs(hotRate-want) > 0.03*want {
		t.Errorf("hot absolute rate %g baseline-units, want %g", hotRate, want)
	}
	coldRate := float64(coldCount) / n * w
	if want := z.P(0); math.Abs(coldRate-want) > 0.05*want {
		t.Errorf("cold absolute rate %g baseline-units, want %g", coldRate, want)
	}
}

// TestHotZipfInertMatchesBase: with an inert flash, DrawAt is a plain base
// draw with an identical stream — byte-for-byte the same sequence.
func TestHotZipfInertMatchesBase(t *testing.T) {
	z := NewZipf(32, 1.0)
	h := NewHotZipf(z, Flash{})
	a, b := simnet.SaltedRand(5, 9), simnet.SaltedRand(5, 9)
	for i := 0; i < 5000; i++ {
		if x, y := h.DrawAt(time.Duration(i)*time.Second, a), z.Draw(b); x != y {
			t.Fatalf("inert composite diverged from base at draw %d: %d vs %d", i, x, y)
		}
	}
	if h.MaxWeightFactor() != 1 {
		t.Errorf("inert MaxWeightFactor %g, want 1", h.MaxWeightFactor())
	}
	if h.base != z || h.f.Active() {
		t.Error("accessors disagree with construction")
	}
}

// TestHotZipfPanicsOnBadObject: a flash aimed outside the catalog is a
// configuration bug, not a runtime surprise.
func TestHotZipfPanicsOnBadObject(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHotZipf(NewZipf(4, 1), Flash{Object: 4, Peak: 10})
}

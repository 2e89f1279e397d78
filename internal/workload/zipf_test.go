package workload

import (
	"math"
	"testing"

	"repro/internal/simnet"
)

// TestZipfPMF: probabilities are a proper, monotone-decreasing
// distribution following (k+1)^-s up to the shared normalizer.
func TestZipfPMF(t *testing.T) {
	z := NewZipf(24, 1.1)
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.P(i)
		if i > 0 && z.P(i) > z.P(i-1) {
			t.Errorf("pmf not monotone: P(%d)=%g > P(%d)=%g", i, z.P(i), i-1, z.P(i-1))
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pmf sums to %g, want 1", sum)
	}
	if got, want := z.P(1)/z.P(0), math.Pow(2, -1.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(1)/P(0) = %g, want 2^-1.1 = %g", got, want)
	}
	if z.s != 1.1 {
		t.Errorf("S() = %g", z.s)
	}
}

// TestZipfUniform: s = 0 degenerates to the uniform distribution.
func TestZipfUniform(t *testing.T) {
	z := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.P(i)-0.1) > 1e-12 {
			t.Fatalf("P(%d) = %g, want 0.1", i, z.P(i))
		}
	}
}

// TestZipfDrawMatchesPMF: empirical frequencies from the alias table track
// the exact pmf (the chi-square gate in the root property suite tightens
// this; here a coarse per-object check suffices).
func TestZipfDrawMatchesPMF(t *testing.T) {
	z := NewZipf(16, 1.0)
	rng := simnet.SaltedRand(7, 0x21F)
	const n = 200000
	counts := make([]int, z.N())
	for i := 0; i < n; i++ {
		o := z.Draw(rng)
		if o < 0 || o >= z.N() {
			t.Fatalf("draw %d outside [0, %d)", o, z.N())
		}
		counts[o]++
	}
	for i, c := range counts {
		got := float64(c) / n
		want := z.P(i)
		if math.Abs(got-want) > 0.05*want+0.002 {
			t.Errorf("object %d: empirical %g vs exact %g", i, got, want)
		}
	}
}

// TestZipfDeterministicReplay: the same (seed, salt) stream reproduces the
// same draw sequence — the generator-replay contract `make race` runs.
func TestZipfDeterministicReplay(t *testing.T) {
	z := NewZipf(64, 1.2)
	a, b := simnet.SaltedRand(42, 0xABC), simnet.SaltedRand(42, 0xABC)
	for i := 0; i < 10000; i++ {
		if x, y := z.Draw(a), z.Draw(b); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}

// TestZipfSingleton: n = 1 always draws object 0.
func TestZipfSingleton(t *testing.T) {
	z := NewZipf(1, 1.1)
	rng := simnet.SaltedRand(1, 1)
	for i := 0; i < 100; i++ {
		if z.Draw(rng) != 0 {
			t.Fatal("singleton drew nonzero")
		}
	}
}

// TestZipfPanics: invalid construction is rejected loudly.
func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(10, -1) },
		func() { NewZipf(10, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

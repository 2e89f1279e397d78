package replic

import (
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func simnetID(i int) simnet.NodeID { return simnet.NodeID(i) }

func h(b byte) cryptoutil.Hash {
	var x cryptoutil.Hash
	x[0] = b
	return x
}

func TestRateHalvesPerHalfLife(t *testing.T) {
	r := NewRate(10 * time.Second)
	r.Observe(0)
	for i, want := range []float64{1, 0.5, 0.25, 0.125} {
		at := time.Duration(i) * 10 * time.Second
		if got := r.Value(at); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Value(%v) = %g, want %g", at, got, want)
		}
	}
	// Value is non-mutating: asking about the future did not decay state.
	if r.Value(0) != 1 {
		t.Fatalf("Value mutated the counter: Value(0) = %g after future reads", r.Value(0))
	}
}

func TestRateAccumulates(t *testing.T) {
	r := NewRate(10 * time.Second)
	r.Observe(0)
	r.Observe(10 * time.Second) // the first observation has halved by now
	if got := r.Value(10 * time.Second); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Value = %g, want 1.5", got)
	}
	// Same-instant and out-of-order adds accumulate without decay.
	r.AddAt(5*time.Second, 1)
	if got := r.Value(10 * time.Second); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("after out-of-order add, Value = %g, want 2.5", got)
	}
}

func TestLocalRateRecoversSteadyStream(t *testing.T) {
	// A constant stream of q req/s accumulates q·HalfLife/ln2 of mass at
	// equilibrium; LocalRate divides that back out and should recover q.
	d := NewDemand(30*time.Second, 1)
	obj := h(1)
	const q = 4.0 // req/s
	step := time.Duration(float64(time.Second) / q)
	var now time.Duration
	for now = 0; now < 10*30*time.Second; now += step {
		d.Observe(obj, 0, now)
	}
	got := d.LocalRate(obj, now)
	if math.Abs(got-q)/q > 0.05 {
		t.Fatalf("LocalRate = %g req/s, want ~%g (±5%%)", got, q)
	}
	if d.LocalRate(h(9), now) != 0 {
		t.Fatal("LocalRate for an unseen object should be 0")
	}
}

func TestAdvertReplacesNotAccumulates(t *testing.T) {
	d := NewDemand(30*time.Second, 2)
	obj := h(2)
	// The same holder re-advertising every tick must not double count.
	for i := 0; i < 10; i++ {
		d.Advert(obj, 7, 2.0, []float64{1.5, 0.5}, time.Duration(i)*time.Second)
	}
	if got := d.SwarmRate(obj, 9*time.Second); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("SwarmRate after 10 re-adverts = %g, want 2.0", got)
	}
	// A second holder's advert adds, in holder-id-sorted order.
	d.Advert(obj, 3, 1.0, []float64{0, 1}, 9*time.Second)
	if got := d.SwarmRate(obj, 9*time.Second); math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("SwarmRate with two holders = %g, want 3.0", got)
	}
	// Adverts decay on the shared half-life.
	if got := d.SwarmRate(obj, 9*time.Second+30*time.Second); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("SwarmRate one half-life later = %g, want 1.5", got)
	}
}

func TestAdvertOrderIndependent(t *testing.T) {
	mk := func(order []int) float64 {
		d := NewDemand(30*time.Second, 2)
		obj := h(3)
		rates := map[int]float64{4: 1.25, 9: 0.625, 2: 2.5}
		for _, id := range order {
			d.Advert(obj, simnetID(id), rates[id], []float64{rates[id], 0}, 5*time.Second)
		}
		return d.SwarmRate(obj, 40*time.Second)
	}
	a := mk([]int{4, 9, 2})
	b := mk([]int{2, 4, 9})
	c := mk([]int{9, 2, 4})
	if a != b || b != c {
		t.Fatalf("SwarmRate depends on advert arrival order: %g %g %g", a, b, c)
	}
}

func TestRegionRates(t *testing.T) {
	d := NewDemand(30*time.Second, 3)
	obj := h(5)
	// Local: heavy in region 1.
	for i := 0; i < 8; i++ {
		d.Observe(obj, 1, time.Duration(i)*time.Second)
	}
	d.Observe(obj, 0, 7*time.Second)
	// Out-of-range regions are dropped, not misfiled.
	d.Observe(obj, -1, 7*time.Second)
	d.Observe(obj, 99, 7*time.Second)
	// Remote: heavy in region 2.
	d.Advert(obj, 9, 5.0, []float64{0, 0, 5}, 7*time.Second)
	dst := make([]float64, 3)
	d.RegionRates(obj, 7*time.Second, dst)
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("RegionRates = %v, want region2 > region1 > region0", dst)
	}
	d.LocalRegionRates(obj, 7*time.Second, dst)
	if dst[2] != 0 || !(dst[1] > dst[0]) {
		t.Fatalf("LocalRegionRates = %v, want remote excluded and region1 > region0", dst)
	}
	if d.regions != 3 {
		t.Fatalf("Regions() = %d", d.regions)
	}
}

func TestTickPrunesDecayedState(t *testing.T) {
	d := NewDemand(time.Second, 1)
	hot, cold := h(6), h(7)
	d.Observe(cold, 0, 0)
	d.Advert(cold, 3, 1.0, []float64{1}, 0)
	d.Observe(hot, 0, 0)
	if len(d.objects) != 2 {
		t.Fatalf("Len = %d, want 2", len(d.objects))
	}
	// 60 half-lives on: cold's mass is ~1e-18, far below the prune floor.
	later := 60 * time.Second
	d.Observe(hot, 0, later)
	d.Tick(later)
	if len(d.objects) != 1 {
		t.Fatalf("Len after prune = %d, want 1 (cold object forgotten)", len(d.objects))
	}
	if d.LocalRate(hot, later) == 0 {
		t.Fatal("prune dropped a live object")
	}
}

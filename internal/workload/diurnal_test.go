package workload

import (
	"math"
	"testing"
	"time"
)

func defaultDiurnal() Diurnal {
	return NewDiurnal(DiurnalConfig{
		Mean: 2.0, Amp: 0.6, Floor: 0.5, Period: 24 * time.Hour,
	})
}

// integrate computes the mean of Rate over one period by midpoint rule.
func integrate(d Diurnal, steps int) float64 {
	p := d.cfg.Period
	var sum float64
	for i := 0; i < steps; i++ {
		t := time.Duration((float64(i) + 0.5) / float64(steps) * float64(p))
		sum += d.Rate(t)
	}
	return sum / float64(steps)
}

// TestDiurnalMeanPreserved: the normalizer makes the time-averaged rate
// equal the configured mean even when the night floor clips the sinusoid
// (Floor 0.5 > 1−Amp 0.4, so the curve is genuinely piecewise here).
func TestDiurnalMeanPreserved(t *testing.T) {
	d := defaultDiurnal()
	if got := integrate(d, 20000); math.Abs(got-d.cfg.Mean) > 0.002*d.cfg.Mean {
		t.Errorf("time-averaged rate %g, configured mean %g", got, d.cfg.Mean)
	}
}

// TestDiurnalFloorBinds: the clipped night segment is flat and the rate
// never drops below Mean·Floor/norm.
func TestDiurnalFloorBinds(t *testing.T) {
	d := defaultDiurnal()
	floorRate := d.Rate(18 * time.Hour) // sin bottom: x=0.75 → 1−Amp=0.4 < Floor
	if other := d.Rate(17 * time.Hour); math.Abs(other-floorRate) > 1e-12 {
		t.Errorf("night floor not flat: %g vs %g", other, floorRate)
	}
	min := math.Inf(1)
	for i := 0; i < 1000; i++ {
		if r := d.Rate(time.Duration(i) * d.cfg.Period / 1000); r < min {
			min = r
		}
	}
	if math.Abs(min-floorRate) > 1e-9 {
		t.Errorf("minimum rate %g != floor rate %g", min, floorRate)
	}
}

// TestDiurnalMaxRateBounds: MaxRate dominates every sampled rate and is
// attained at the daytime peak.
func TestDiurnalMaxRateBounds(t *testing.T) {
	d := defaultDiurnal()
	max := 0.0
	for i := 0; i < 4000; i++ {
		if r := d.Rate(time.Duration(i) * d.cfg.Period / 4000); r > max {
			max = r
		}
	}
	if max > d.MaxRate()+1e-9 {
		t.Errorf("sampled max %g exceeds MaxRate %g", max, d.MaxRate())
	}
	if max < 0.99*d.MaxRate() {
		t.Errorf("sampled max %g never approaches MaxRate %g", max, d.MaxRate())
	}
}

// TestDiurnalPhaseShift: a phase offset slides the curve in time:
// shifted.Rate(t) == base.Rate(t+phase).
func TestDiurnalPhaseShift(t *testing.T) {
	base := defaultDiurnal()
	shifted := base.share(1, 6*time.Hour)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 17 * time.Minute
		if a, b := shifted.Rate(at), base.Rate(at+6*time.Hour); math.Abs(a-b) > 1e-12 {
			t.Fatalf("phase shift broken at %v: %g vs %g", at, a, b)
		}
	}
}

// TestDiurnalShare: scaling splits the mean without touching the shape.
func TestDiurnalShare(t *testing.T) {
	base := defaultDiurnal()
	half := base.share(0.5, 0)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * 13 * time.Minute
		if a, b := half.Rate(at), base.Rate(at)/2; math.Abs(a-b) > 1e-12 {
			t.Fatalf("share(0.5) at %v: %g vs %g", at, a, b)
		}
	}
	if half.cfg.Mean != base.cfg.Mean/2 {
		t.Errorf("share mean %g, want %g", half.cfg.Mean, base.cfg.Mean/2)
	}
}

// TestDiurnalConstant: Amp 0 with no floor is a flat line at Mean.
func TestDiurnalConstant(t *testing.T) {
	d := NewDiurnal(DiurnalConfig{Mean: 3, Period: time.Hour})
	for i := 0; i < 50; i++ {
		if r := d.Rate(time.Duration(i) * time.Minute); math.Abs(r-3) > 1e-12 {
			t.Fatalf("constant rate drifted: %g", r)
		}
	}
	if d.MaxRate() != 3 {
		t.Errorf("MaxRate %g, want 3", d.MaxRate())
	}
}

// TestDiurnalHighFloor: Floor above the sinusoid peak flattens the whole
// curve; MaxRate must follow the floor, not 1+Amp.
func TestDiurnalHighFloor(t *testing.T) {
	d := NewDiurnal(DiurnalConfig{Mean: 1, Amp: 0.2, Floor: 2, Period: time.Hour})
	for i := 0; i < 50; i++ {
		if r := d.Rate(time.Duration(i) * time.Minute); math.Abs(r-1) > 1e-12 {
			t.Fatalf("flat-floor rate %g, want 1 (normalizer must absorb the floor)", r)
		}
	}
	if math.Abs(d.MaxRate()-1) > 1e-12 {
		t.Errorf("MaxRate %g, want 1", d.MaxRate())
	}
}

// TestDiurnalNegativeTimeWraps: Rate is periodic in both directions.
func TestDiurnalNegativeTimeWraps(t *testing.T) {
	d := defaultDiurnal()
	if a, b := d.Rate(-3*time.Hour), d.Rate(21*time.Hour); math.Abs(a-b) > 1e-12 {
		t.Errorf("negative time broke periodicity: %g vs %g", a, b)
	}
}

// TestDiurnalPanics: invalid configs are rejected.
func TestDiurnalPanics(t *testing.T) {
	for _, cfg := range []DiurnalConfig{
		{Mean: 1, Period: 0},
		{Mean: -1, Period: time.Hour},
		{Mean: 1, Amp: -0.1, Period: time.Hour},
		{Mean: 1, Floor: -0.1, Period: time.Hour},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected panic", cfg)
				}
			}()
			NewDiurnal(cfg)
		}()
	}
}

package workload

import (
	"fmt"
	"math"
	"time"
)

// DiurnalConfig parameterizes a daily request-rate cycle.
type DiurnalConfig struct {
	// Mean is the average request rate in requests/sec over one full
	// period — the configured mean the generated schedule must hit
	// (property-tested to within 1%).
	Mean float64
	// Amp is the sinusoidal swing around the mean in [0, ∞): the raw shape
	// is 1 + Amp·sin(2πx) over one period.
	Amp float64
	// Floor clamps the raw shape from below (as a multiple of the
	// pre-normalization mean level 1): traffic never quite dies at night.
	// With Floor > 1-Amp the clamp binds and the curve is genuinely
	// piecewise — a flat night floor joined to a daytime sinusoid.
	Floor float64
	// Period is the length of one virtual "day".
	Period time.Duration
	// Phase shifts the cycle: a region Phase east of UTC peaks earlier.
	Phase time.Duration
}

// Diurnal is a piecewise-sinusoid rate function over virtual time. Because
// the night floor clips the sine, the raw shape's mean exceeds 1; the
// constructor computes the normalization once (4096-point midpoint rule)
// so that the integral of Rate over any whole period equals Mean·Period —
// the property the diurnal-integral gate in property_test.go asserts to
// within 1%.
type Diurnal struct {
	cfg  DiurnalConfig
	norm float64
}

// NewDiurnal validates and normalizes a diurnal cycle.
func NewDiurnal(cfg DiurnalConfig) Diurnal {
	if cfg.Period <= 0 {
		panic(fmt.Sprintf("workload: NewDiurnal needs Period > 0, got %v", cfg.Period))
	}
	if cfg.Mean < 0 || cfg.Amp < 0 || cfg.Floor < 0 {
		panic("workload: NewDiurnal needs Mean, Amp, Floor >= 0")
	}
	d := Diurnal{cfg: cfg}
	const steps = 4096
	var sum float64
	for i := 0; i < steps; i++ {
		sum += d.shape((float64(i) + 0.5) / steps)
	}
	d.norm = sum / steps
	if d.norm <= 0 {
		d.norm = 1 // Amp = Floor = 0 degenerates to a constant rate
	}
	return d
}

// shape is the raw (un-normalized) daily curve at day-fraction x ∈ [0, 1).
func (d Diurnal) shape(x float64) float64 {
	v := 1 + d.cfg.Amp*math.Sin(2*math.Pi*x)
	if v < d.cfg.Floor {
		v = d.cfg.Floor
	}
	return v
}

// Rate returns the instantaneous request rate (requests/sec) at virtual
// time t. Allocation-free.
func (d Diurnal) Rate(t time.Duration) float64 {
	x := math.Mod(float64(t+d.cfg.Phase)/float64(d.cfg.Period), 1)
	if x < 0 {
		x++
	}
	return d.cfg.Mean * d.shape(x) / d.norm
}

// MaxRate returns the supremum of Rate over a period — the thinning bound
// Generate rejects against.
func (d Diurnal) MaxRate() float64 {
	peak := 1 + d.cfg.Amp
	if d.cfg.Floor > peak {
		peak = d.cfg.Floor
	}
	return d.cfg.Mean * peak / d.norm
}

// share returns a copy carrying frac of the mean rate with an extra phase
// offset — one region's slice of the population-wide cycle. The
// normalization is shape-only, so it carries over unchanged.
func (d Diurnal) share(frac float64, extraPhase time.Duration) Diurnal {
	out := d
	out.cfg.Mean *= frac
	out.cfg.Phase += extraPhase
	return out
}

package workload

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/simnet"
)

// Request is one generated request: client Client asks for object Object
// at virtual time At (relative to the start of the measured window).
type Request struct {
	At     time.Duration
	Object int
	Client int
}

// StreamConfig assembles the full engine: who requests (Clients, homed
// into Regions), what they request (Pop, skewed by Flash), and when
// (Rate, phase-shifted per region; arrivals are a thinned Poisson
// process off a dedicated RNG stream).
type StreamConfig struct {
	// Seed and Salt pick the generator's RNG stream via Rand. Salt 0 uses
	// SaltStream; pass a distinct salt to draw an independent schedule
	// from the same seed.
	Seed int64
	Salt uint64
	// Clients is the requester population size; each Request carries a
	// client index in [0, Clients).
	Clients int
	// Horizon bounds request times: every At is in [0, Horizon).
	Horizon time.Duration
	// Pop is the content-popularity sampler (required).
	Pop *Zipf
	// Rate is the population-wide arrival-rate cycle (required: build
	// with NewDiurnal; Amp 0 gives a steady rate).
	Rate Diurnal
	// Flash optionally spikes one object; the zero value is inert.
	Flash Flash
	// Regions optionally homes clients round-robin into regions: each
	// region runs its own arrival process carrying its population share
	// of the mean rate, phase-shifted by the region's diurnal offset.
	Regions *RegionSet
}

// Generate produces the deterministic request schedule: time-ordered,
// identical for the same (Seed, config) at any call site or worker count.
// Arrivals are drawn by Poisson thinning against the analytic rate bound,
// objects by the flash-aware composite sampler, clients uniformly within
// the issuing region.
func Generate(cfg StreamConfig) []Request {
	if cfg.Clients < 1 || cfg.Horizon <= 0 || cfg.Pop == nil {
		panic(fmt.Sprintf("workload: Generate needs Clients >= 1, Horizon > 0 and Pop, got %d/%v/%v",
			cfg.Clients, cfg.Horizon, cfg.Pop != nil))
	}
	salt := cfg.Salt
	if salt == 0 {
		salt = SaltStream
	}
	nR := 1
	if cfg.Regions != nil {
		nR = len(cfg.Regions.Regions)
	}
	members := make([][]int, nR)
	for c := 0; c < cfg.Clients; c++ {
		r := 0
		if cfg.Regions != nil {
			r = cfg.Regions.Assign(c)
		}
		members[r] = append(members[r], c)
	}
	hot := NewHotZipf(cfg.Pop, cfg.Flash)
	maxW := hot.MaxWeightFactor()

	var all []Request
	for r := 0; r < nR; r++ {
		if len(members[r]) == 0 {
			continue
		}
		share := float64(len(members[r])) / float64(cfg.Clients)
		var phase time.Duration
		if cfg.Regions != nil {
			phase = cfg.Regions.Regions[r].Phase
		}
		d := cfg.Rate.share(share, phase)
		lamMax := d.MaxRate() * maxW
		if lamMax <= 0 {
			continue
		}
		// One independent sub-stream per region: adding a region never
		// shifts another region's draws.
		rng := simnet.SaltedRand(cfg.Seed, salt^(uint64(r+1)*0x9E3779B97F4A7C15))
		var t time.Duration
		for {
			t += time.Duration(rng.ExpFloat64() / lamMax * float64(time.Second))
			if t >= cfg.Horizon {
				break
			}
			if lam := d.Rate(t) * hot.WeightFactor(t); rng.Float64()*lamMax >= lam {
				continue
			}
			all = append(all, Request{
				At:     t,
				Object: hot.DrawAt(t, rng),
				Client: members[r][rng.Intn(len(members[r]))],
			})
		}
	}
	// Stable by time: per-region order is already chronological and
	// cross-region ties break by region index — fully deterministic.
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

package workload

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func defaultStream() StreamConfig {
	return StreamConfig{
		Seed:    42,
		Clients: 30,
		Horizon: 2000 * time.Second,
		Pop:     NewZipf(24, 1.1),
		Rate: NewDiurnal(DiurnalConfig{
			Mean: 2.0, Amp: 0.6, Floor: 0.5, Period: 500 * time.Second,
		}),
	}
}

// TestGenerateOrderedAndBounded: the schedule is time-sorted and every
// field stays inside its configured range.
func TestGenerateOrderedAndBounded(t *testing.T) {
	cfg := defaultStream()
	reqs := Generate(cfg)
	if len(reqs) == 0 {
		t.Fatal("empty schedule")
	}
	for i, r := range reqs {
		if r.At < 0 || r.At >= cfg.Horizon {
			t.Fatalf("request %d at %v outside [0, %v)", i, r.At, cfg.Horizon)
		}
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, r.At, reqs[i-1].At)
		}
		if r.Client < 0 || r.Client >= cfg.Clients {
			t.Fatalf("request %d client %d outside [0, %d)", i, r.Client, cfg.Clients)
		}
		if r.Object < 0 || r.Object >= cfg.Pop.N() {
			t.Fatalf("request %d object %d outside [0, %d)", i, r.Object, cfg.Pop.N())
		}
	}
}

// TestGenerateReplaysIdentically: same (seed, config) → byte-identical
// schedule, every call site, every time. This is the replay contract the
// race suite exercises; distinct seeds or salts must diverge.
func TestGenerateReplaysIdentically(t *testing.T) {
	cfg := defaultStream()
	cfg.Flash = Flash{Object: 23, Start: 800 * time.Second, Ramp: 100 * time.Second, Peak: 400, Decay: 150 * time.Second}
	rs := DefaultRegions(3, cfg.Rate.cfg.Period)
	cfg.Regions = &rs
	a, b := Generate(cfg), Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	other := cfg
	other.Seed = 43
	if reflect.DeepEqual(a, Generate(other)) {
		t.Error("distinct seeds produced identical schedules")
	}
	salted := cfg
	salted.Salt = 0xBEEF
	if reflect.DeepEqual(a, Generate(salted)) {
		t.Error("distinct salts produced identical schedules")
	}
}

// TestGenerateCountMatchesMean: over whole diurnal periods the thinned
// process realizes Mean·Horizon arrivals (±5%, ~4σ at this volume).
func TestGenerateCountMatchesMean(t *testing.T) {
	cfg := defaultStream() // 4 whole periods; mean preserved by normalizer
	want := cfg.Rate.cfg.Mean * cfg.Horizon.Seconds()
	got := float64(len(Generate(cfg)))
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("generated %g requests, want %g ± 5%%", got, want)
	}
}

// TestGenerateFlashInflatesHotShare: during the spike the hot object
// dominates the schedule; before the spike it sits at its baseline share.
func TestGenerateFlashInflatesHotShare(t *testing.T) {
	cfg := defaultStream()
	hotObj := 23 // least popular object goes viral
	cfg.Flash = Flash{Object: hotObj, Start: 1000 * time.Second, Ramp: 100 * time.Second, Peak: 1000, Decay: 200 * time.Second}
	reqs := Generate(cfg)
	var preTotal, preHot, spikeTotal, spikeHot float64
	spikeEnd := cfg.Flash.Start + cfg.Flash.Ramp + cfg.Flash.Decay
	for _, r := range reqs {
		switch {
		case r.At < cfg.Flash.Start:
			preTotal++
			if r.Object == hotObj {
				preHot++
			}
		case r.At < spikeEnd:
			spikeTotal++
			if r.Object == hotObj {
				spikeHot++
			}
		}
	}
	baseP := cfg.Pop.P(hotObj)
	if pre := preHot / preTotal; pre > 5*baseP+0.01 {
		t.Errorf("pre-flash hot share %g, want ≈ baseline %g", pre, baseP)
	}
	if spike := spikeHot / spikeTotal; spike < 0.5 {
		t.Errorf("in-spike hot share %g, want > 0.5 (peak ×%g on P=%g)", spike, cfg.Flash.Peak, baseP)
	}
	// The crowd is extra demand: the spike window must carry more requests
	// than the same-length window before the flash.
	preWindow := 0.0
	for _, r := range reqs {
		if r.At >= cfg.Flash.Start-(spikeEnd-cfg.Flash.Start) && r.At < cfg.Flash.Start {
			preWindow++
		}
	}
	if spikeTotal < 1.5*preWindow {
		t.Errorf("spike window %g requests vs %g before — flash demand not additive", spikeTotal, preWindow)
	}
}

// TestGenerateRegionsSplitLoad: with regions installed, each region's
// round-robin membership carries its share of the total and only issues
// its own clients.
func TestGenerateRegionsSplitLoad(t *testing.T) {
	cfg := defaultStream()
	rs := DefaultRegions(3, cfg.Rate.cfg.Period)
	cfg.Regions = &rs
	reqs := Generate(cfg)
	counts := make([]float64, 3)
	for _, r := range reqs {
		counts[rs.Assign(r.Client)]++
	}
	total := float64(len(reqs))
	for r, c := range counts {
		if share := c / total; math.Abs(share-1.0/3) > 0.05 {
			t.Errorf("region %d carries %g of the load, want ≈ 1/3", r, share)
		}
	}
	if want := cfg.Rate.cfg.Mean * cfg.Horizon.Seconds(); math.Abs(total-want) > 0.08*want {
		t.Errorf("regional split changed total volume: %g vs %g", total, want)
	}
}

// TestGeneratePanics: incomplete configs are rejected.
func TestGeneratePanics(t *testing.T) {
	base := defaultStream()
	for name, mut := range map[string]func(*StreamConfig){
		"no clients": func(c *StreamConfig) { c.Clients = 0 },
		"no horizon": func(c *StreamConfig) { c.Horizon = 0 },
		"no pop":     func(c *StreamConfig) { c.Pop = nil },
	} {
		cfg := base
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Generate(cfg)
		}()
	}
}

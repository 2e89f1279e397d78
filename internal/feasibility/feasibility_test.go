package feasibility

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestTable3ExactPaperNumbers pins the reproduction to the paper's
// published Table 3: cloud 200 Tbps / 400 M cores / 80 EB versus devices
// 5000 Tbps / 500 M cores / 210 EB.
func TestTable3ExactPaperNumbers(t *testing.T) {
	c := PaperCloud().Estimate()
	d := PaperDevices().Estimate()

	if c.BandwidthTbps != 200 {
		t.Errorf("cloud bandwidth = %v Tbps, want 200", c.BandwidthTbps)
	}
	if c.Cores != 400e6 {
		t.Errorf("cloud cores = %v, want 400M", c.Cores)
	}
	if c.StorageEB != 80 {
		t.Errorf("cloud storage = %v EB, want 80", c.StorageEB)
	}
	if d.BandwidthTbps != 5000 {
		t.Errorf("device bandwidth = %v Tbps, want 5000", d.BandwidthTbps)
	}
	if d.Cores != 500e6 {
		t.Errorf("device cores = %v, want 500M", d.Cores)
	}
	if math.Abs(d.StorageEB-210) > 1e-9 {
		t.Errorf("device storage = %v EB, want 210", d.StorageEB)
	}
	if d.BandwidthTbps < c.BandwidthTbps || d.Cores < c.Cores || d.StorageEB < c.StorageEB {
		t.Error("paper's conclusion — sufficient capacity — does not hold")
	}
}

func TestTable3Rows(t *testing.T) {
	rows := Table3(PaperCloud(), PaperDevices())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string][2]string{
		"Bandwidth": {"200 Tbps", "5000 Tbps"},
		"Cores":     {"400 M", "500 M"},
		"Storage":   {"80 EB", "210 EB"},
	}
	for _, r := range rows {
		w, ok := want[r.Resource]
		if !ok {
			t.Errorf("unexpected resource %q", r.Resource)
			continue
		}
		if r.Cloud != w[0] || r.Devices != w[1] {
			t.Errorf("%s: got %s vs %s, want %s vs %s", r.Resource, r.Cloud, r.Devices, w[0], w[1])
		}
		if !r.Sufficient {
			t.Errorf("%s: paper says devices suffice", r.Resource)
		}
	}
}

func TestCapacityString(t *testing.T) {
	s := PaperCloud().Estimate().String()
	if !strings.Contains(s, "200 Tbps") || !strings.Contains(s, "400 M cores") || !strings.Contains(s, "80 EB") {
		t.Errorf("string = %q", s)
	}
}

func TestZeroTrafficShareNoScale(t *testing.T) {
	p := PaperCloud()
	p.ProviderTrafficShare = 0
	c := p.Estimate()
	if c.Cores != 100e6 {
		t.Errorf("unscaled cores = %v", c.Cores)
	}
	if c.BandwidthTbps != 0 {
		t.Errorf("bandwidth with zero share = %v", c.BandwidthTbps)
	}
}

func TestZeroComputeDiscount(t *testing.T) {
	p := PaperDevices()
	p.ComputeDiscount = 0
	if got := p.Estimate().Cores; got != 4e9 {
		t.Errorf("undiscounted cores = %v, want 4e9", got)
	}
}

func TestQualityDiscount(t *testing.T) {
	raw := PaperDevices().Estimate()
	q := QualityDiscount{Availability: 0.5, RedundancyFactor: 3}
	eff := q.Apply(raw)
	if math.Abs(eff.StorageEB-70) > 1e-9 {
		t.Errorf("effective storage = %v EB, want 70", eff.StorageEB)
	}
	if eff.Cores != 250e6 {
		t.Errorf("effective cores = %v, want 250M", eff.Cores)
	}
	if math.Abs(eff.BandwidthTbps-5000.0/6) > 1e-9 {
		t.Errorf("effective bandwidth = %v", eff.BandwidthTbps)
	}
	// With the paper's numbers, 3× redundancy at 50% availability still
	// leaves the storage conclusion intact (70 < 80 fails!) — the §5.2
	// "quality vs quantity" tension made concrete.
	cloud := PaperCloud().Estimate()
	if eff.StorageEB >= cloud.StorageEB {
		t.Error("expected the quality discount to flip the storage conclusion at r=3, a=0.5")
	}
	// Degenerate parameters clamp to no-op.
	noop := QualityDiscount{}.Apply(raw)
	if noop != raw {
		t.Error("zero-value discount should be identity")
	}
}

func TestBreakEvenRedundancy(t *testing.T) {
	got := BreakEvenRedundancy(PaperCloud(), PaperDevices())
	if math.Abs(got-210.0/80) > 1e-9 {
		t.Errorf("break-even redundancy = %v, want 2.625", got)
	}
	empty := CloudParams{}
	if BreakEvenRedundancy(empty, PaperDevices()) != 0 {
		t.Error("zero cloud storage should yield 0")
	}
}

// Property: device capacity is monotone in population counts.
func TestMonotoneInCounts(t *testing.T) {
	f := func(extraPCs uint32) bool {
		base := PaperDevices()
		grown := PaperDevices()
		grown.Classes[0].Count += float64(extraPCs)
		b, g := base.Estimate(), grown.Estimate()
		return g.BandwidthTbps >= b.BandwidthTbps && g.Cores >= b.Cores && g.StorageEB >= b.StorageEB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: quality discount never increases capacity.
func TestDiscountNeverGains(t *testing.T) {
	f := func(a, r float64) bool {
		avail := math.Mod(math.Abs(a), 1)
		red := 1 + math.Mod(math.Abs(r), 10)
		if avail == 0 {
			avail = 0.5
		}
		raw := PaperDevices().Estimate()
		eff := QualityDiscount{Availability: avail, RedundancyFactor: red}.Apply(raw)
		return eff.BandwidthTbps <= raw.BandwidthTbps && eff.Cores <= raw.Cores && eff.StorageEB <= raw.StorageEB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

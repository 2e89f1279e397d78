package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/simnet"
)

func TestAggregateSeedsReduces(t *testing.T) {
	// A toy core whose cells are linear in the seed, so the aggregates are
	// known exactly: seeds 1..5 → mean 3, p50 3, p95 4.8.
	run := func(seed int64) Matrix {
		m := NewMatrix([]string{"r"}, []string{"c0", "c1"})
		m.Vals[0][0] = float64(seed)
		m.Vals[0][1] = float64(seed) * 10
		return m
	}
	agg := AggregateSeeds([]int64{1, 2, 3, 4, 5}, 1, run)
	if agg.Seeds != 5 {
		t.Fatalf("seeds = %d", agg.Seeds)
	}
	if agg.Mean[0][0] != 3 || agg.Mean[0][1] != 30 {
		t.Errorf("means = %v", agg.Mean)
	}
	if agg.P50[0][0] != 3 {
		t.Errorf("p50 = %v", agg.P50[0][0])
	}
	if got := agg.P95[0][0]; got < 4.7 || got > 5 {
		t.Errorf("p95 = %v", got)
	}
}

func TestAggTableRendering(t *testing.T) {
	agg := AggregateSeeds([]int64{2, 4}, 1, func(seed int64) Matrix {
		m := NewMatrix([]string{"row"}, []string{"A", "B"})
		m.Vals[0][0] = float64(seed)
		m.Vals[0][1] = float64(seed) * 100
		return m
	})
	tab := agg.Table("demo", "Thing", "%.1f", "%.0f%%")
	s := tab.String()
	if !strings.Contains(s, "over 2 seeds") {
		t.Errorf("title missing seed count:\n%s", s)
	}
	if !strings.Contains(s, "3.0 [3.0 3.9]") {
		t.Errorf("mean [p50 p95] cell missing:\n%s", s)
	}
	if !strings.Contains(s, "300% [300% 390%]") {
		t.Errorf("per-column format not applied:\n%s", s)
	}
}

func TestAggregateSeedsEmpty(t *testing.T) {
	agg := AggregateSeeds(nil, 4, func(seed int64) Matrix { return NewMatrix(nil, nil) })
	if agg.Seeds != 0 || agg.Mean != nil {
		t.Errorf("empty aggregate not zero: %+v", agg)
	}
}

func TestStrideSeedsMatchesSerialDerivation(t *testing.T) {
	got := strideSeeds(7+30, 1000, 3)
	want := []int64{37, 1037, 2037}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("strideSeeds = %v, want %v", got, want)
	}
}

// TestMultiSeedDeterministicAcrossWorkers is the PR's determinism
// acceptance check at the experiments layer: fanning the X3 numeric core
// over simnet.Trials must give bit-identical matrices — and therefore
// bit-identical aggregates — whether the trials run serially or on
// GOMAXPROCS workers.
func TestMultiSeedDeterministicAcrossWorkers(t *testing.T) {
	seeds := simnet.Seeds(42, 6)
	run := func(seed int64) Matrix {
		return commAvailabilityMatrix(seed, commSize{servers: 5, fails: []float64{0, 0.4}})
	}
	serial := simnet.Trials(seeds, 1, run)
	parallel := simnet.Trials(seeds, 0, run)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("X3 matrices differ between serial and parallel trial runs")
	}
	aggSerial := AggregateSeeds(seeds, 1, run)
	aggParallel := AggregateSeeds(seeds, 0, run)
	if !reflect.DeepEqual(aggSerial, aggParallel) {
		t.Fatal("X3 aggregates differ between serial and parallel trial runs")
	}
	// The aggregate must reflect real spread, not collapsed or copied rows:
	// centralized at f=0.4 is identically zero across seeds...
	if aggSerial.Mean[0][1] != 0 || aggSerial.P95[0][1] != 0 {
		t.Errorf("centralized at f=0.4 should be 0 across all seeds: %+v", aggSerial.Mean)
	}
	// ...while every model delivers at f=0.
	for r := range aggSerial.Rows {
		if aggSerial.Mean[r][0] < 0.9 {
			t.Errorf("%s at f=0: mean %.2f, want ≈1", aggSerial.Rows[r], aggSerial.Mean[r][0])
		}
	}
}

// TestCommAvailabilityMultiShape pins the rendered multi-seed table
// format: X3's descriptor aggregating its core at custom sizes.
func TestCommAvailabilityMultiShape(t *testing.T) {
	d := descriptorByID("comm-availability")
	d.matrix = func(seed int64, _ bool) Matrix {
		return commAvailabilityMatrix(seed, commSize{servers: 5, fails: []float64{0, 0.4}})
	}
	tab := d.runMulti(simnet.Seeds(11, 3), 0, false)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows), tab)
	}
	if !strings.Contains(tab.Title, "over 3 seeds") {
		t.Errorf("title missing seed count: %q", tab.Title)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "[") || !strings.Contains(cell, "]") {
				t.Errorf("cell %q missing [p50 p95] annotation:\n%s", cell, tab)
			}
		}
	}
}

package simnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// trialResult is a small per-seed summary exercising clock, traffic, and
// RNG state — enough surface that any cross-trial interference shows up.
type trialResult struct {
	End       time.Duration
	Delivered int64
	Draw      float64
}

func runOneTrial(seed int64) trialResult {
	nw := New(seed)
	nw.SetDefaultProfile(HomeBroadbandProfile())
	nodes := make([]*Node, 8)
	for i := range nodes {
		nodes[i] = nw.AddNode()
		nodes[i].Handle("x", func(m Message) {})
	}
	for i := 0; i < 100; i++ {
		from := nodes[i%8]
		to := nodes[(i*3+1)%8]
		if from.ID() != to.ID() {
			from.Send(to.ID(), "x", i, 500+i)
		}
	}
	end := nw.Run(time.Hour)
	return trialResult{End: end, Delivered: nw.Trace().Delivered, Draw: nodes[0].Rand().Float64()}
}

// TestTrialsDeterministicAcrossWorkerCounts is the acceptance property of
// the runner: results are bit-identical whether trials run serially, on
// GOMAXPROCS workers, or anything in between, and arrive in seed order.
func TestTrialsDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := Seeds(42, 24)
	serial := Trials(seeds, 1, runOneTrial)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} {
		got := Trials(seeds, workers, runOneTrial)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: results differ from serial run", workers)
		}
	}
}

func TestTrialsSeedOrder(t *testing.T) {
	seeds := []int64{5, 1, 9, 3}
	got := Trials(seeds, 0, func(seed int64) int64 { return seed })
	if !reflect.DeepEqual(got, seeds) {
		t.Errorf("results %v not in seed order %v", got, seeds)
	}
}

func TestTrialsEmpty(t *testing.T) {
	if out := Trials(nil, 4, func(seed int64) int { return 1 }); len(out) != 0 {
		t.Errorf("empty seeds produced %d results", len(out))
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(7, 100)
	b := Seeds(7, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Seeds is not deterministic")
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	c := Seeds(8, 100)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("bases 7 and 8 share %d seeds position-wise", same)
	}
}

// TestNodeStreamsDecorrelated guards the seeding scheme: node i+1's stream
// must not be node i's stream shifted by one draw, which is exactly what a
// naive golden-ratio-offset SplitMix64 seeding produces.
func TestNodeStreamsDecorrelated(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := nodeRand(seed, 0)
		b := nodeRand(seed, 1)
		// Draw a window from each; b's window must not appear verbatim
		// inside a's (shift-correlation).
		aw := make([]uint64, 16)
		for i := range aw {
			aw[i] = a.Uint64()
		}
		b0 := b.Uint64()
		for _, v := range aw {
			if v == b0 {
				t.Fatalf("seed %d: node 1's first draw appears in node 0's stream window", seed)
			}
		}
	}
}

package replic

import (
	"sort"
	"testing"
	"time"

	"repro/internal/simnet"
)

// twoRegionRouter builds a router for a client in region 0 of a two-region
// geography 80ms apart, with nodes 1,3 in region 0 and 2,4 in region 1.
func twoRegionRouter(srtt func(simnet.NodeID) (time.Duration, bool)) *Router {
	regionOf := map[simnet.NodeID]int{1: 0, 2: 1, 3: 0, 4: 1}
	extra := [][]time.Duration{
		{0, 80 * time.Millisecond},
		{80 * time.Millisecond, 0},
	}
	return NewRouter(0, regionOf, extra, srtt)
}

func TestRouterEstimateMatrixFallback(t *testing.T) {
	r := twoRegionRouter(nil)
	if got := r.Estimate(1); got != accessHop {
		t.Fatalf("same-region estimate = %v, want the %v access constant", got, accessHop)
	}
	if got := r.Estimate(2); got != accessHop+80*time.Millisecond {
		t.Fatalf("cross-region estimate = %v, want %v", got, accessHop+80*time.Millisecond)
	}
	// Flat geography: all matrix estimates collapse to the constant.
	flat := NewRouter(0, map[simnet.NodeID]int{}, nil, nil)
	if flat.Estimate(7) != accessHop {
		t.Fatalf("flat-geography estimate = %v", flat.Estimate(7))
	}
}

func TestRouterMeasuredSRTTOverridesMatrix(t *testing.T) {
	// Node 2 is cross-region by the matrix but measured fast; node 1 is
	// same-region but measured slow. Measurement wins both ways.
	srtt := func(id simnet.NodeID) (time.Duration, bool) {
		switch id {
		case 1:
			return 400 * time.Millisecond, true
		case 2:
			return 20 * time.Millisecond, true
		}
		return 0, false
	}
	r := twoRegionRouter(srtt)
	if got := r.Estimate(1); got != 200*time.Millisecond {
		t.Fatalf("measured estimate = %v, want SRTT/2 = 200ms", got)
	}
	ranked := r.Rank([]simnet.NodeID{1, 2, 3, 4})
	// 2 measured at 10ms one-way, 3 matrix 5ms, 4 matrix 85ms, 1 measured 200ms.
	want := []simnet.NodeID{3, 2, 4, 1}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("ranked = %v, want %v", ranked, want)
		}
	}
}

func TestRouterRankTotalOrder(t *testing.T) {
	r := twoRegionRouter(nil)
	// Every starting permutation of the candidate set ranks identically:
	// matrix order first (region 0 before region 1), node id on ties.
	want := []simnet.NodeID{1, 3, 2, 4}
	perms := [][]simnet.NodeID{
		{1, 2, 3, 4}, {4, 3, 2, 1}, {2, 4, 1, 3}, {3, 1, 4, 2},
	}
	for _, p := range perms {
		in := append([]simnet.NodeID(nil), p...)
		got := r.Rank(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Rank(%v) = %v, want %v", p, got, want)
			}
		}
	}
	// Degenerate candidate sets.
	if out := r.Rank(nil); len(out) != 0 {
		t.Fatalf("Rank(nil) = %v", out)
	}
	if out := r.Rank([]simnet.NodeID{2}); len(out) != 1 || out[0] != 2 {
		t.Fatalf("Rank single = %v", out)
	}
}

// TestRouterRankOneEstimatePerHolder: Rank asks for each holder's
// estimate exactly once, allocates nothing, and orders exactly as sorting
// by (Estimate, node id) does — on lists with measured and unmeasured
// peers, tied estimates, and more holders than the stack buffer.
func TestRouterRankOneEstimatePerHolder(t *testing.T) {
	probes := map[simnet.NodeID]int{}
	srtt := func(id simnet.NodeID) (time.Duration, bool) {
		probes[id]++
		if id%3 == 0 {
			return time.Duration(id%5) * 20 * time.Millisecond, true
		}
		return 0, false
	}
	r := twoRegionRouter(srtt)
	for _, n := range []int{2, 6, 16, 40} {
		in := make([]simnet.NodeID, n)
		for i := range in {
			in[i] = simnet.NodeID((i*7 + 3) % n) // a permutation: 7 is prime to every n
		}
		want := append([]simnet.NodeID(nil), in...)
		sort.SliceStable(want, func(i, j int) bool {
			ei, ej := r.Estimate(want[i]), r.Estimate(want[j])
			return ei < ej || (ei == ej && want[i] < want[j])
		})
		clear(probes)
		got := r.Rank(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Rank = %v, want %v", n, got, want)
			}
		}
		for id, k := range probes {
			if k != 1 {
				t.Fatalf("n=%d: holder %d estimated %d times, want once", n, id, k)
			}
		}
	}
	hs := []simnet.NodeID{4, 3, 2, 1, 9, 6}
	if avg := testing.AllocsPerRun(100, func() { r.Rank(hs) }); avg != 0 {
		t.Errorf("Rank allocates %.2f/op, want 0", avg)
	}
}

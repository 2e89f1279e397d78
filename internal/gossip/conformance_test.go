package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// gossipConformanceRun floods items from an anchor member while a fault
// scenario runs, and returns the fraction of (member, item) pairs delivered
// by the end of the horizon. Anti-entropy is the repair mechanism under
// test: crashed or partitioned members must catch up once faults clear.
func gossipConformanceRun(t testing.TB, seed int64, sc fault.Scenario) float64 {
	t.Helper()
	const (
		nMembers = 12
		nItems   = 10
		horizon  = 30 * time.Minute
	)
	nw, members := buildGroup(t, seed, nMembers, Config{
		Fanout:              3,
		AntiEntropyInterval: 30 * time.Second,
	})

	// Member 0 is the anchor publisher, excluded from node-targeted faults
	// so the source of truth survives; everyone else is fair game.
	eligible := make([]simnet.NodeID, 0, nMembers-1)
	for _, m := range members[1:] {
		eligible = append(eligible, m.Node().ID())
	}
	sc.Build(seed, eligible, horizon).ApplyAt(nw, 0)

	// Publish throughout the fault window, so items land while members are
	// down, partitioned, and mangled.
	items := make([]Item, nItems)
	for i := range items {
		items[i] = item(fmt.Sprintf("conformance-item-%d", i))
		it := items[i]
		nw.Schedule(time.Duration(i)*horizon/(2*nItems), func() { members[0].Publish(it) })
	}
	nw.Run(horizon)

	have, total := 0, 0
	for _, m := range members {
		for _, it := range items {
			total++
			if m.Has(it.ID) {
				have++
			}
		}
	}
	return float64(have) / float64(total)
}

// TestGossipRecoveryConformance: every item published during the fault
// window must reach every member by the end of the run — anti-entropy must
// fully repair the set under each scenario.
func TestGossipRecoveryConformance(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if got := gossipConformanceRun(t, 403, sc); got < 1.0 {
				t.Errorf("delivery ratio %.3f after recovery window, want 1.0", got)
			}
		})
	}
}

// TestGossipConformanceDeterministic: the delivery ratio is a pure function
// of the seed.
func TestGossipConformanceDeterministic(t *testing.T) {
	sc := fault.CorruptTenPct()
	if a, b := gossipConformanceRun(t, 88, sc), gossipConformanceRun(t, 88, sc); a != b {
		t.Errorf("same seed gave different ratios: %v vs %v", a, b)
	}
}

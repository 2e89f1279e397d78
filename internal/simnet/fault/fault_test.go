package fault

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

func ids(n int) []simnet.NodeID {
	out := make([]simnet.NodeID, n)
	for i := range out {
		out[i] = simnet.NodeID(i)
	}
	return out
}

// TestScenariosDeterministicPlans: the same (seed, nodes, horizon) must
// yield an identical plan for every scenario in the battery, and a
// different seed must change at least one randomized scenario's plan.
func TestScenariosDeterministicPlans(t *testing.T) {
	nodes := ids(10)
	for _, sc := range Scenarios() {
		a := sc.Build(42, nodes, time.Hour).String()
		b := sc.Build(42, nodes, time.Hour).String()
		if a != b {
			t.Errorf("%s: same seed built different plans:\n%s\nvs\n%s", sc.Name, a, b)
		}
	}
	changed := false
	for _, sc := range Scenarios() {
		if sc.Name == "clean" || sc.Name == "corrupt-10pct" {
			continue // no randomized choices
		}
		if sc.Build(1, nodes, time.Hour).String() != sc.Build(2, nodes, time.Hour).String() {
			changed = true
		}
	}
	if !changed {
		t.Error("no randomized scenario changed its plan across seeds")
	}
}

// TestScenarioFaultsClearByRecoveryPoint: every step of every scenario must
// be scheduled at or before RecoveryPoint(horizon), so the final fifth of
// the run is fault-free.
func TestScenarioFaultsClearByRecoveryPoint(t *testing.T) {
	const horizon = time.Hour
	for _, sc := range Scenarios() {
		for seed := int64(0); seed < 5; seed++ {
			p := sc.Build(seed, ids(9), horizon)
			if end := p.End(); end > RecoveryPoint(horizon) {
				t.Errorf("%s seed %d: last step at %v is after recovery point %v",
					sc.Name, seed, end, RecoveryPoint(horizon))
			}
		}
	}
}

// TestScenariosOnlyTouchEligibleNodes: node-targeted faults must stay
// inside the eligible set, so callers can protect anchors.
func TestScenariosOnlyTouchEligibleNodes(t *testing.T) {
	nw := simnet.New(7)
	for i := 0; i < 12; i++ {
		nw.AddNode()
	}
	anchor := nw.Node(0)
	eligible := ids(12)[1:] // node 0 excluded
	for _, sc := range Scenarios() {
		plan := sc.Build(99, eligible, 10*time.Minute)
		plan.ApplyAt(nw, 0)
	}
	// A skewed clock would stretch or shrink the anchor's one-second timers.
	skewed := 0
	var tick func()
	tick = func() {
		start := nw.Now()
		anchor.After(time.Second, func() {
			if nw.Now()-start != time.Second {
				skewed++
			}
			tick()
		})
	}
	tick()
	nw.Run(10 * time.Minute)
	if anchor.Crashes() != 0 {
		t.Errorf("anchor node crashed %d times despite being ineligible", anchor.Crashes())
	}
	if skewed != 0 {
		t.Errorf("anchor clock skewed: %d one-second timers fired off time", skewed)
	}
}

// TestPlanCrashRestart: crash/restart steps fire at their scheduled times.
func TestPlanCrashRestart(t *testing.T) {
	nw := simnet.New(1)
	n := nw.AddNode()
	NewPlan().
		CrashAt(time.Minute, n.ID()).
		RestartAt(2*time.Minute, n.ID()).
		ApplyAt(nw, 0)
	nw.Run(30 * time.Second)
	if !n.Up() {
		t.Fatal("node down before plan's crash time")
	}
	nw.Run(90 * time.Second)
	if n.Up() {
		t.Fatal("node up during planned outage")
	}
	nw.Run(3 * time.Minute)
	if !n.Up() {
		t.Fatal("node not restarted by plan")
	}
	if n.Crashes() != 1 {
		t.Fatalf("crashes = %d, want 1", n.Crashes())
	}
}

// TestPlanPartitionHeal: a planned partition blocks cross-group traffic and
// the planned heal restores it.
func TestPlanPartitionHeal(t *testing.T) {
	nw := simnet.New(2)
	a, b := nw.AddNode(), nw.AddNode()
	got := 0
	b.Handle("ping", func(simnet.Message) { got++ })
	NewPlan().
		PartitionAt(time.Minute, nil, []simnet.NodeID{b.ID()}).
		HealAt(2*time.Minute).
		ApplyAt(nw, 0)

	// One send per phase: before partition, during, after heal.
	nw.Schedule(30*time.Second, func() { a.Send(b.ID(), "ping", nil, 16) })
	nw.Schedule(90*time.Second, func() { a.Send(b.ID(), "ping", nil, 16) })
	nw.Schedule(150*time.Second, func() { a.Send(b.ID(), "ping", nil, 16) })
	nw.Run(4 * time.Minute)
	if got != 2 {
		t.Fatalf("delivered %d pings, want 2 (partitioned send dropped)", got)
	}
}

// TestDegradeRestoreRoundTrips: RestoreLinksAt reinstates the exact
// pre-degradation profile, and a second ApplyAt starts from fresh scratch
// state.
func TestDegradeRestoreRoundTrips(t *testing.T) {
	plan := NewPlan().
		DegradeLinksAt(time.Minute, 0.3, 10*time.Millisecond, 5*time.Millisecond, 0).
		RestoreLinksAt(2*time.Minute, 0)
	for trial := 0; trial < 2; trial++ {
		nw := simnet.New(3)
		n := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		want := n.Profile()
		plan.ApplyAt(nw, 0)
		nw.Run(90 * time.Second)
		mid := n.Profile()
		if mid.Loss != 0.3 || mid.Latency != want.Latency+10*time.Millisecond {
			t.Fatalf("trial %d: degraded profile = %+v", trial, mid)
		}
		nw.Run(3 * time.Minute)
		if got := n.Profile(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: profile after restore = %+v, want %+v", trial, got, want)
		}
	}
}

// TestPlanStringListsStepsInOrder: steps render sorted by time regardless
// of insertion order.
func TestPlanStringListsStepsInOrder(t *testing.T) {
	p := NewPlan().
		HealAt(2*time.Minute).
		CrashAt(time.Minute, 0)
	steps := p.Steps()
	if len(steps) != 2 || steps[0].At != time.Minute || steps[1].At != 2*time.Minute {
		t.Fatalf("steps out of order: %+v", steps)
	}
}

// TestScenarioRunDeterminism: applying the same scenario to two identical
// networks with identical workloads must produce identical traces — the
// seed-reproducibility contract the conformance suite depends on.
func TestScenarioRunDeterminism(t *testing.T) {
	for _, sc := range Scenarios() {
		run := func() simnet.Trace {
			nw := simnet.New(1234)
			n := 8
			nodes := make([]*simnet.Node, n)
			for i := range nodes {
				nodes[i] = nw.AddNode()
				nodes[i].Handle("tick", func(simnet.Message) {})
			}
			sc.Build(1234, ids(n), 20*time.Minute).ApplyAt(nw, 0)
			// Workload: every node pings its ring successor every second.
			for i, src := range nodes {
				src, dst := src, nodes[(i+1)%n]
				var tick func()
				tick = func() {
					if src.Up() {
						src.Send(dst.ID(), "tick", nil, 128)
					}
					src.After(time.Second, tick)
				}
				src.After(time.Second, tick)
			}
			nw.Run(20 * time.Minute)
			return *nw.Trace()
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: traces differ across identical runs:\n%+v\nvs\n%+v", sc.Name, a, b)
		}
		if a.Sent == 0 || a.Delivered == 0 {
			t.Errorf("%s: workload did not run (trace %+v)", sc.Name, a)
		}
	}
}

// TestCorruptScenarioManglesTraffic: under corrupt-10pct the trace must
// show corrupted, duplicated, and reordered messages — and none under
// clean.
func TestCorruptScenarioManglesTraffic(t *testing.T) {
	run := func(sc Scenario) simnet.Trace {
		nw := simnet.New(5)
		a, b := nw.AddNode(), nw.AddNode()
		b.Handle("x", func(simnet.Message) {})
		sc.Build(5, []simnet.NodeID{a.ID(), b.ID()}, 10*time.Minute).ApplyAt(nw, 0)
		for i := 0; i < 600; i++ {
			i := i
			nw.Schedule(time.Duration(i)*time.Second, func() { a.Send(b.ID(), "x", nil, 64) })
		}
		nw.Run(10 * time.Minute)
		return *nw.Trace()
	}
	corrupt := run(CorruptTenPct())
	if corrupt.Corrupted == 0 || corrupt.Duplicated == 0 || corrupt.Reordered == 0 {
		t.Errorf("corrupt-10pct injected nothing: %+v", corrupt)
	}
	clean := run(Clean())
	if clean.Corrupted != 0 || clean.Duplicated != 0 || clean.Reordered != 0 {
		t.Errorf("clean scenario mangled traffic: %+v", clean)
	}
}

// TestSustainedChurnContract: the non-healing stressor must be
// deterministic per seed, stay inside the eligible set, keep crashing
// past the battery's RecoveryPoint (violating that contract is its whole
// purpose), and produce an empty plan for an empty population.
func TestSustainedChurnContract(t *testing.T) {
	sc := SustainedChurn()
	const horizon = time.Hour
	nodes := ids(12)[1:]
	if a, b := sc.Build(42, nodes, horizon).String(), sc.Build(42, nodes, horizon).String(); a != b {
		t.Errorf("same seed built different plans:\n%s\nvs\n%s", a, b)
	}
	if sc.Build(1, nodes, horizon).String() == sc.Build(2, nodes, horizon).String() {
		t.Error("different seeds built identical churn plans")
	}
	p := sc.Build(7, nodes, horizon)
	if end := p.End(); end <= RecoveryPoint(horizon) {
		t.Errorf("sustained churn ends at %v, before the recovery point %v — it must not heal", end, RecoveryPoint(horizon))
	}
	if got := len(sc.Build(7, nil, horizon).steps); got != 0 {
		t.Errorf("empty population produced %d steps", got)
	}

	// Applied to a real network, waves must only ever crash eligible nodes
	// and every crashed node must be restarted by the plan's own steps.
	nw := simnet.New(9)
	for i := 0; i < 12; i++ {
		nw.AddNode()
	}
	sc.Build(99, nodes, 10*time.Minute).ApplyAt(nw, 0)
	nw.Run(10 * time.Minute)
	if nw.Node(0).Crashes() != 0 {
		t.Error("anchor node crashed despite being ineligible")
	}
	churned := 0
	for _, id := range nodes {
		if nw.Node(id).Crashes() > 0 {
			churned++
		}
	}
	if churned == 0 {
		t.Error("no eligible node was churned")
	}
	for _, id := range nodes {
		if !nw.Node(id).Up() {
			t.Errorf("node %d still down at the end: every crash carries a restart", id)
		}
	}
}

// TestPlanStartEnd: Start/End bracket the plan's active window and both
// report zero for an empty plan.
func TestPlanStartEnd(t *testing.T) {
	empty := NewPlan()
	if empty.Start() != 0 || empty.End() != 0 {
		t.Errorf("empty plan window = [%v, %v], want [0, 0]", empty.Start(), empty.End())
	}
	p := NewPlan().
		CrashAt(3*time.Minute, 1).
		RestartAt(5*time.Minute, 1).
		PartitionAt(time.Minute, []simnet.NodeID{1}, []simnet.NodeID{2}).
		HealAt(7 * time.Minute)
	if p.Start() != time.Minute {
		t.Errorf("Start = %v, want 1m", p.Start())
	}
	if p.End() != 7*time.Minute {
		t.Errorf("End = %v, want 7m", p.End())
	}
}

package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// TestFaultCellOrdersSameInstantEvents pins the runner's scheduling order
// where a fault step, the world's workload, an availability probe and a
// recovery sample all land on one instant: plan → drive → probe → healthy.
// X14's publish times coincide with scenario steps, so the goldens depend
// on this order; they can only say that something moved, not what.
func TestFaultCellOrdersSameInstantEvents(t *testing.T) {
	const first, last = 2 * time.Minute, 6 * time.Minute
	nw := simnet.New(1)
	node := nw.AddNode()
	nw.Run(time.Minute) // a warmed world: the scenario clock starts past zero
	start := nw.Now()
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%v %s", nw.Now()-start, what)) }

	// The plan's two steps crash and restart the node; its observers log them.
	node.OnDown(func() { note("plan") })
	node.OnUp(func() { note("plan") })
	sc := fault.Scenario{Name: "two-steps", Build: func(int64, []simnet.NodeID, time.Duration) *fault.Plan {
		return fault.NewPlan().CrashAt(first, node.ID()).RestartAt(last, node.ID())
	}}
	w := faultWorld{
		nw: nw, msgNodes: 1, sla: time.Second,
		drive: func() {
			nw.Schedule(start+first, func() { note("drive") })
			nw.Schedule(start+last, func() { note("drive") })
		},
		probe:   func(done func(bool)) { note("probe"); done(true) },
		healthy: func(done func(bool)) { note("healthy"); done(true) },
	}
	// One probe: the fault window opens at the first step, so the probe
	// lands on it; the first recovery sample lands on the last step.
	cell := runFaultCell(1, sc, faultSpec{horizon: 10 * time.Minute, nodes: 1, probes: 1}, w)

	want := []string{"2m0s plan", "2m0s drive", "2m0s probe", "6m0s plan", "6m0s drive", "6m0s healthy"}
	if len(log) < len(want) || !reflect.DeepEqual(log[:len(want)], want) {
		t.Errorf("event order = %v, want prefix %v", log, want)
	}
	if cell.avail != 1 || cell.rec != 0 {
		t.Errorf("avail %v rec %v, want 1 and 0: every probe and the first sample succeeded", cell.avail, cell.rec)
	}
}

// TestFaultCellWorldDown: a world whose setup failed (upload or publish
// never landed) is the zero faultWorld; its cell scores nothing and is
// charged the whole horizon as recovery time.
func TestFaultCellWorldDown(t *testing.T) {
	sp := faultSpec{horizon: 8 * time.Minute, nodes: 4, probes: 8}
	cell := runFaultCell(1, fault.SustainedChurn(), sp, faultWorld{})
	if cell.success != 0 || cell.avail != 0 || cell.msgPerNode != 0 || cell.rec != sp.horizon {
		t.Errorf("zero world scored %+v, want all zero with rec = %v", cell, sp.horizon)
	}
}

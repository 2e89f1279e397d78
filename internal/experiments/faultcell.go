package experiments

import (
	"time"

	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// The fault-cell runner behind X14 and X16: one warmed subsystem world,
// one fault scenario, one measurement. A subsystem row of either matrix is
// a constructor returning a faultWorld; runFaultCell does the rest.

// recoverySamples is how many times across the horizon the recovery
// invariant is sampled (from the last fault step on, so fewer actually
// run). Worlds that spend a fresh resource per sample size their pool
// from it.
const recoverySamples = 20

// faultSpec sizes one cell: the fault horizon, the world's population, and
// the number of availability probes across the fault window.
type faultSpec struct {
	horizon time.Duration
	nodes   int
	probes  int
}

// faultWorld is a subsystem built, warmed and ready for faults. The zero
// value means setup failed; its cell scores nothing and never recovers.
type faultWorld struct {
	nw *simnet.Network
	// eligible are the nodes a scenario may fault; anchors (bootstrap
	// peers, probe clients, trackers) stay out.
	eligible []simnet.NodeID
	// msgNodes is the msg/node denominator.
	msgNodes int
	// drive, when non-nil, starts or schedules the workload that runs
	// through the faults. It is called after the plan is applied, so at
	// equal instants a fault step precedes the workload's event.
	drive func()
	// probe is the user-facing operation whose availability is metered
	// across the fault window against sla; nil skips the meter (X14).
	probe func(done func(bool))
	sla   time.Duration
	// healthy is the recovery invariant, sampled once the faults clear.
	healthy func(done func(bool))
	// score, when non-nil, measures post-run success in [0, 1]; it may run
	// the network further.
	score func() float64
}

// faultCell is one (world, scenario) measurement.
type faultCell struct {
	slaScore           // availability in [0, 1] and p95 seconds over the probes
	success    float64 // the world's post-run score
	msgPerNode float64 // substrate messages sent per node from fault start to horizon
	rec        time.Duration
}

// runFaultCell applies the scenario to the world from now, runs it for the
// horizon and scores it. Scheduling order is part of the contract, because
// the event engine runs same-instant events in scheduling order and the
// workloads' timestamps do coincide with fault steps: plan steps, then the
// world's drive, then the sent-counter baseline, then availability probes,
// then recovery samples.
func runFaultCell(seed int64, sc fault.Scenario, sp faultSpec, w faultWorld) faultCell {
	if w.nw == nil {
		return faultCell{rec: sp.horizon}
	}
	nw, start := w.nw, w.nw.Now()
	plan := sc.Build(seed, w.eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	if w.drive != nil {
		w.drive()
	}
	var sent *int64
	var avail *slaMeter
	if w.probe != nil {
		ws, we := probeWindow(plan, sp.horizon)
		sent = sentMeter(nw, start+ws)
		avail = newSLAMeter(w.sla, 1)
		avail.every(nw, start, ws, we, (we-ws)/time.Duration(sp.probes), nw.Now, w.probe)
	}
	// Sample the recovery invariant from the last fault step on and keep
	// the offset of the first sample at which it held. A sample reports
	// asynchronously, possibly while score runs the network on, so rec is
	// read last; an invariant that never held is capped at the fault-free
	// window.
	faultEnd := plan.End()
	rec, held := sp.horizon-faultEnd, false
	for t := faultEnd; t < sp.horizon; t += sp.horizon / recoverySamples {
		nw.Schedule(start+t, func() {
			w.healthy(func(ok bool) {
				if ok && !held {
					held, rec = true, t-faultEnd
				}
			})
		})
	}
	nw.Run(start + sp.horizon)

	var cell faultCell
	if w.probe != nil {
		cell.slaScore = avail.score()
		cell.msgPerNode = float64(nw.Trace().Sent-*sent) / float64(w.msgNodes)
	}
	if w.score != nil {
		cell.success = w.score()
	}
	cell.rec = rec
	return cell
}

// probeWindow returns the span probes are launched over: the plan's
// active window, or the whole horizon for an empty (clean) plan.
func probeWindow(p *fault.Plan, horizon time.Duration) (time.Duration, time.Duration) {
	ws, we := p.Start(), p.End()
	if we <= ws {
		return 0, horizon
	}
	return ws, we
}

// sentMeter snapshots the substrate's sent-message counter at a virtual
// time, so traffic can be charged to the fault window only.
func sentMeter(nw *simnet.Network, at time.Duration) *int64 {
	base := new(int64)
	nw.Schedule(at, func() { *base = nw.Trace().Sent })
	return base
}

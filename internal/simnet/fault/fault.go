// Package fault provides deterministic, seed-reproducible fault-injection
// plans for simnet networks. A Plan is a timed script of adversities —
// partitions and heals, node crashes and restarts, link degradation,
// in-flight message mangling (corruption, duplication, reordering), and
// clock skew — scheduled on the simulation's own event engine, so a plan
// perturbs a run exactly the same way every time for a given seed.
//
// The package exists because the paper's hard problems (§5.3) are exactly
// the failure modes the happy path never exercises: nodes on flaky home
// links, partitions, churned and misbehaving peers. The Scenario battery
// (scenarios.go) packages the canonical adversities every subsystem must
// survive; each subsystem's conformance_test.go drives its protocols
// through the battery and asserts recovery invariants, and experiment X14
// aggregates the same runs into a recovery matrix.
//
// Plans inject faults only before RecoveryPoint(horizon); the tail of the
// run is a guaranteed fault-free window in which recovery is measured.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/simnet"
)

// Step is one scheduled fault action.
type Step struct {
	At   time.Duration
	Desc string
	do   func(nw *simnet.Network, st *applyState)
}

// applyState is per-ApplyAt scratch shared by paired steps (degrade/restore),
// so one Plan can be applied to any number of networks independently.
type applyState struct {
	savedProfiles map[simnet.NodeID]simnet.LinkProfile
}

// Plan is a deterministic schedule of fault steps. Build one with the
// typed At-helpers, then ApplyAt it to a network before Run.
// The zero Plan is valid and injects nothing.
type Plan struct {
	steps []Step
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

func (p *Plan) add(at time.Duration, desc string, do func(nw *simnet.Network, st *applyState)) *Plan {
	p.steps = append(p.steps, Step{At: at, Desc: desc, do: do})
	return p
}

// PartitionAt splits the network into groups at time at (see
// simnet.Network.Partition for drop semantics).
func (p *Plan) PartitionAt(at time.Duration, groups ...[]simnet.NodeID) *Plan {
	return p.add(at, fmt.Sprintf("partition %v", groups), func(nw *simnet.Network, _ *applyState) {
		nw.Partition(groups...)
	})
}

// HealAt removes any partition at time at.
func (p *Plan) HealAt(at time.Duration) *Plan {
	return p.add(at, "heal", func(nw *simnet.Network, _ *applyState) { nw.Heal() })
}

// CrashAt crashes the given nodes at time at (no-op for already-down nodes).
func (p *Plan) CrashAt(at time.Duration, ids ...simnet.NodeID) *Plan {
	return p.add(at, fmt.Sprintf("crash %v", ids), func(nw *simnet.Network, _ *applyState) {
		for _, id := range ids {
			nw.Node(id).Crash()
		}
	})
}

// RestartAt restarts the given nodes at time at (no-op for up nodes).
func (p *Plan) RestartAt(at time.Duration, ids ...simnet.NodeID) *Plan {
	return p.add(at, fmt.Sprintf("restart %v", ids), func(nw *simnet.Network, _ *applyState) {
		for _, id := range ids {
			nw.Node(id).Restart()
		}
	})
}

// LinkFaultAt installs the network-wide in-flight fault model at time at.
func (p *Plan) LinkFaultAt(at time.Duration, f simnet.LinkFault) *Plan {
	desc := fmt.Sprintf("linkfault corrupt=%.0f%% dup=%.0f%% reorder=%.0f%%",
		f.Corrupt*100, f.Duplicate*100, f.Reorder*100)
	return p.add(at, desc, func(nw *simnet.Network, _ *applyState) { nw.SetLinkFault(f) })
}

// ClearLinkFaultAt removes in-flight fault injection at time at.
func (p *Plan) ClearLinkFaultAt(at time.Duration) *Plan {
	return p.add(at, "clear linkfault", func(nw *simnet.Network, _ *applyState) {
		nw.SetLinkFault(simnet.LinkFault{})
	})
}

// SkewAt sets the clock-rate multiplier of a node at time at (1 = perfect
// clock; see simnet.Node.SetClockSkew).
func (p *Plan) SkewAt(at time.Duration, id simnet.NodeID, rate float64) *Plan {
	return p.add(at, fmt.Sprintf("skew node %d ×%.2f", id, rate), func(nw *simnet.Network, _ *applyState) {
		nw.Node(id).SetClockSkew(rate)
	})
}

// DegradeLinksAt moves the given nodes onto a flaky edge at time at: their
// profiles gain the given loss probability (if higher than current), extra
// one-way latency, and extra jitter. The pre-degradation profiles are
// remembered so RestoreLinksAt can undo exactly this step.
func (p *Plan) DegradeLinksAt(at time.Duration, loss float64, extraLatency, extraJitter time.Duration, ids ...simnet.NodeID) *Plan {
	desc := fmt.Sprintf("degrade %v loss=%.0f%% +%v", ids, loss*100, extraLatency)
	return p.add(at, desc, func(nw *simnet.Network, st *applyState) {
		for _, id := range ids {
			n := nw.Node(id)
			prof := n.Profile()
			if _, saved := st.savedProfiles[id]; !saved {
				st.savedProfiles[id] = prof
			}
			if loss > prof.Loss {
				prof.Loss = loss
			}
			prof.Latency += extraLatency
			prof.Jitter += extraJitter
			n.SetProfile(prof)
		}
	})
}

// RestoreLinksAt undoes DegradeLinksAt for the given nodes at time at,
// reinstating the profile each node had when it was first degraded. Nodes
// that were never degraded are left untouched.
func (p *Plan) RestoreLinksAt(at time.Duration, ids ...simnet.NodeID) *Plan {
	return p.add(at, fmt.Sprintf("restore links %v", ids), func(nw *simnet.Network, st *applyState) {
		for _, id := range ids {
			if prof, saved := st.savedProfiles[id]; saved {
				nw.Node(id).SetProfile(prof)
				delete(st.savedProfiles, id)
			}
		}
	})
}

// Steps returns the plan's steps in execution order.
func (p *Plan) Steps() []Step {
	out := append([]Step(nil), p.steps...)
	sortSteps(out)
	return out
}

// Start returns the time of the earliest scheduled step (0 for an empty
// plan): the point at which the plan first perturbs the network.
func (p *Plan) Start() time.Duration {
	var start time.Duration
	for i, s := range p.steps {
		if i == 0 || s.At < start {
			start = s.At
		}
	}
	return start
}

// End returns the time of the last scheduled step (0 for an empty plan):
// the point after which the plan injects nothing further.
func (p *Plan) End() time.Duration {
	var end time.Duration
	for _, s := range p.steps {
		if s.At > end {
			end = s.At
		}
	}
	return end
}

// ApplyAt schedules every step on the network's event engine, its time
// shifted by base. The shift gives the workload fault-free setup time
// (bootstrap, initial publishes) before the scenario clock starts: build
// the plan against the horizon of the measured window and apply it at
// base = nw.Now(). A plan may be applied to several networks (or the same
// network under several seeds); each ApplyAt gets independent scratch
// state, so paired degrade/restore steps never leak between runs.
func (p *Plan) ApplyAt(nw *simnet.Network, base time.Duration) {
	st := &applyState{savedProfiles: map[simnet.NodeID]simnet.LinkProfile{}}
	for _, s := range p.Steps() {
		s := s
		nw.Schedule(base+s.At, func() { s.do(nw, st) })
	}
}

// String renders the schedule, one step per line, in execution order.
//
//reach:fmt.Stringer; a plan prints itself when a test or a user logs it
func (p *Plan) String() string {
	var b strings.Builder
	for _, s := range p.Steps() {
		fmt.Fprintf(&b, "t=%v %s\n", s.At, s.Desc)
	}
	return b.String()
}

// sortSteps orders by time, ties broken by insertion order (sort.SliceStable
// over the already-insertion-ordered slice).
func sortSteps(steps []Step) {
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
}

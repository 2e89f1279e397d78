package fault

import (
	"math/rand"
	"time"

	"repro/internal/simnet"
)

// A Scenario is a named, parameterized adversity: given a seed, the set of
// fault-eligible nodes, and the run horizon, Build derives the concrete
// Plan. All randomness (which nodes are victims, when exactly they fail)
// comes from the seed through Rand, so the same (seed, nodes, horizon)
// always yields the same plan — and therefore the same run.
//
// Scenario contracts, relied on by the conformance suite and X14:
//
//   - Every fault a scenario injects is cleared (healed, restored,
//     restarted, link fault removed) by RecoveryPoint(horizon).
//   - Nodes outside the eligible set are never crashed, degraded, or
//     skewed — callers exclude anchors such as trackers or bootstrap
//     peers. (Network-wide knobs — partitions and link faults — still
//     affect traffic to and from anchors.)
type Scenario struct {
	Name string
	Desc string
	// Build derives the plan for this scenario.
	Build func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan
}

// RecoveryPoint returns the virtual time by which every scenario's faults
// have cleared: the final fifth of the horizon is guaranteed fault-free,
// and recovery invariants are asserted against it.
//
//reach:experiments' conformance tests assert recovery invariants from it
func RecoveryPoint(horizon time.Duration) time.Duration { return horizon * 4 / 5 }

// Per-scenario salts for Rand, so scenarios sharing a seed draw
// independent victim sets.
const (
	saltLossyEdge      = 0x10551
	saltFlashPartition = 0xF1A5
	saltRollingChurn   = 0xC4024
	saltSustained      = 0x5C402
)

// frac returns fraction num/den of the horizon.
func frac(horizon time.Duration, num, den int64) time.Duration {
	return horizon * time.Duration(num) / time.Duration(den)
}

// Clean is the baseline scenario: no faults at all. Recovery metrics under
// Clean are the ceiling the faulted scenarios are compared against.
func Clean() Scenario {
	return Scenario{
		Name: "clean",
		Desc: "no faults; baseline ceiling",
		Build: func(int64, []simnet.NodeID, time.Duration) *Plan {
			return NewPlan()
		},
	}
}

// LossyEdge models §5.2 device-grade reality: from 10% to 75% of the run, a
// random half of the eligible nodes sit on flaky home links (15% loss,
// +30ms latency, +20ms jitter) with drifting clocks (rate uniform in
// [0.9, 1.1]).
func LossyEdge() Scenario {
	return Scenario{
		Name: "lossy-edge",
		Desc: "half the nodes on flaky, clock-skewed home links for the middle of the run",
		Build: func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan {
			rng := Rand(seed, saltLossyEdge)
			victims := pick(rng, nodes, (len(nodes)+1)/2)
			p := NewPlan()
			start, stop := frac(horizon, 1, 10), frac(horizon, 3, 4)
			p.DegradeLinksAt(start, 0.15, 30*time.Millisecond, 20*time.Millisecond, victims...)
			for _, id := range victims {
				rate := 0.9 + 0.2*rng.Float64()
				p.SkewAt(start, id, rate)
				p.SkewAt(stop, id, 1)
			}
			p.RestoreLinksAt(stop, victims...)
			return p
		},
	}
}

// FlashPartition splits the network in two from 30% to 55% of the run: a
// random half of the eligible nodes is torn away from everyone else, then
// the partition heals.
func FlashPartition() Scenario {
	return Scenario{
		Name: "flash-partition",
		Desc: "half the nodes partitioned away mid-run, then healed",
		Build: func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan {
			rng := Rand(seed, saltFlashPartition)
			island := pick(rng, nodes, len(nodes)/2)
			// The island must be a non-zero group: unlisted nodes default
			// into group 0 alongside the first group passed.
			return NewPlan().
				PartitionAt(frac(horizon, 3, 10), nil, island).
				HealAt(frac(horizon, 11, 20))
		},
	}
}

// RollingChurn crashes every eligible node once, staggered across
// [15%, 55%] of the run, with outages of 5–15% of the horizon each, so the
// membership is in constant flux but never fully down.
func RollingChurn() Scenario {
	return Scenario{
		Name: "rolling-churn",
		Desc: "every node crashes once in a staggered wave and restarts",
		Build: func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan {
			rng := Rand(seed, saltRollingChurn)
			p := NewPlan()
			if len(nodes) == 0 {
				return p
			}
			order := pick(rng, nodes, len(nodes))
			window := frac(horizon, 2, 5) // crashes spread over [0.15H, 0.55H]
			for k, id := range order {
				crash := frac(horizon, 3, 20) + window*time.Duration(k)/time.Duration(len(order))
				outage := frac(horizon, 1, 20) + time.Duration(rng.Int63n(int64(frac(horizon, 1, 10))+1))
				p.CrashAt(crash, id)
				p.RestartAt(crash+outage, id)
			}
			return p
		},
	}
}

// CorruptTenPct turns on in-flight message mangling from 15% to 75% of the
// run: 10% of messages arrive as unparseable garbage, 5% are duplicated,
// and 25% are held back out of order.
func CorruptTenPct() Scenario {
	return Scenario{
		Name: "corrupt-10pct",
		Desc: "10% corruption, 5% duplication, 25% reordering mid-run",
		Build: func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan {
			return NewPlan().
				LinkFaultAt(frac(horizon, 3, 20), simnet.LinkFault{
					Corrupt:   0.10,
					Duplicate: 0.05,
					Reorder:   0.25,
					HoldBack:  200 * time.Millisecond,
				}).
				ClearLinkFaultAt(frac(horizon, 3, 4))
		},
	}
}

// SustainedChurn is the X16 stress scenario: eligible nodes crash and
// restart in repeated staggered waves from 10% of the run until just shy
// of the horizon, with no healed tail. It deliberately violates the
// battery contract above (faults cleared by RecoveryPoint), so it is NOT
// part of Scenarios() — recovery invariants cannot be asserted against
// it. X16 appends it explicitly to measure behaviour under faults that
// never stop.
func SustainedChurn() Scenario {
	return Scenario{
		Name: "sustained-churn",
		Desc: "repeated staggered crash/restart waves with no healed tail",
		Build: func(seed int64, nodes []simnet.NodeID, horizon time.Duration) *Plan {
			rng := Rand(seed, saltSustained)
			p := NewPlan()
			if len(nodes) == 0 {
				return p
			}
			start, stop := frac(horizon, 1, 10), frac(horizon, 19, 20)
			wave := frac(horizon, 1, 4)
			for waveStart := start; waveStart < stop; waveStart += wave {
				order := pick(rng, nodes, (len(nodes)+2)/3)
				for k, id := range order {
					crash := waveStart + wave*time.Duration(k)/time.Duration(len(order)+1)
					outage := frac(horizon, 1, 25) + time.Duration(rng.Int63n(int64(frac(horizon, 1, 12))+1))
					if crash >= stop {
						break
					}
					restart := crash + outage
					if restart > stop {
						restart = stop
					}
					p.CrashAt(crash, id)
					p.RestartAt(restart, id)
				}
			}
			return p
		},
	}
}

// Scenarios returns the canonical battery in stable order. Every subsystem's
// conformance suite and the X14 recovery matrix iterate exactly this list.
func Scenarios() []Scenario {
	return []Scenario{Clean(), LossyEdge(), FlashPartition(), RollingChurn(), CorruptTenPct()}
}

// pick returns k distinct nodes drawn without replacement, in a
// deterministic shuffled order.
func pick(rng *rand.Rand, nodes []simnet.NodeID, k int) []simnet.NodeID {
	if k > len(nodes) {
		k = len(nodes)
	}
	perm := rng.Perm(len(nodes))
	out := make([]simnet.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = nodes[perm[i]]
	}
	return out
}

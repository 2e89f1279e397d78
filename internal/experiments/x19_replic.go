package experiments

import (
	"time"

	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet/fault"
)

// X19: does demand-chasing replication buy back what X18 showed the
// static p2p arm losing? X18 proved the architecture point — a swarm
// survives a flash crowd a single home server cannot — but its p2p arm
// replicates by side effect (visitors seed what they just fetched) and
// its static arms never replicate at all. X19 isolates the replication
// policy: the same flash-crowd schedule, the same provider hardware (home
// uplinks), the same directory — the only difference between arms is
// whether internal/replic is enabled.
//
//	static-K   replication disabled: every object keeps its initial K
//	           replicas forever, clients fetch in directory order
//	           (origin first) and fail over on error — federation-style
//	           static provisioning
//	adaptive   replic enabled: exponentially-decayed demand counters,
//	           hive-style adverts between co-holders, origin-driven
//	           pushes toward the heaviest requester region, decay back
//	           to the K floor, nearest-replica routing on resil SRTT
//	           estimates with hedged fetches
//
// Both arms run clean and under the battery's rolling-churn scenario
// (every provider and client crashes once mid-run). Per arm: avail%
// (answered within the SLA, X16's user-experienced measure), p95 latency,
// origin% (share of payload bytes served by each object's pinned origin —
// the replic.origin.byte_share gauge), and the replica-count timeline's
// peak and final values, which show the set inflating under the spike and
// garbage-collecting back to the floor.

// x19Cfg is the adaptive arm's replication config. The floor is the
// spec's K and the cap is bounded by the provider population. The
// reaction knobs are deliberately faster than the package
// defaults, and the reason is the experiment's central lesson: a
// saturated origin loses its own control plane — its pushes and
// directory calls queue behind the very responses that are drowning it —
// so replication must finish while the flash ramp still leaves uplink
// headroom. A 15s half-life crosses the advertise threshold within
// ~30s of the ramp starting, 10s ticks turn that into a push per 10s,
// and one replica per 0.5 req/s of swarm demand (~¼ of a home uplink's
// 64KB-object capacity) sizes the set with room for the demand the
// decayed counter has not seen yet.
func x19Cfg(sp flashSpec) replic.Config {
	cfg := replic.Defaults()
	cfg.FloorK = sp.k
	if cfg.Cap > sp.providers {
		cfg.Cap = sp.providers
	}
	cfg.HotRate = 0.25
	cfg.ColdRate = 0.1
	cfg.PerReplicaRate = 0.5
	cfg.HalfLife = 15 * time.Second
	cfg.TickEvery = 10 * time.Second
	return cfg
}

// x19Arms is the battery: static-K vs adaptive replication, clean and
// under the battery's rolling churn. The adaptive arms run the resilience
// layer so nearest-replica ranking has measured SRTT to rank on.
func x19Arms(sp flashSpec) []flashArm {
	static, adaptive := replic.Config{}, x19Cfg(sp)
	churn := fault.RollingChurn()
	return []flashArm{
		{name: "static-clean", shape: shapeSwarm, replic: static},
		{name: "static-churn", shape: shapeSwarm, replic: static, scenario: &churn},
		{name: "adaptive-clean", shape: shapeSwarm, replic: adaptive, resil: resil.Defaults()},
		{name: "adaptive-churn", shape: shapeSwarm, replic: adaptive, resil: resil.Defaults(), scenario: &churn},
	}
}

// replicationMatrix is the numeric core of X19: one shared flash-crowd
// schedule through every arm.
func replicationMatrix(env Env) Matrix {
	sp := flashSpecFor(env.Tiny)
	reqs, rs := x18Stream(env.Seed, sp, "flash")
	arms := x19Arms(sp)
	m := Matrix{Cols: []string{"avail%", "p95(s)", "origin%", "repl-peak", "repl-end"}}
	for _, arm := range arms {
		res := runFlashArm(env, sp, arm, reqs, rs)
		// X19-only observability: the origin-share gauge registers after every
		// pre-existing experiment's metrics are already fixed, and the replic.*
		// counters were filled in by the package as the arm ran.
		res.nw.Obs().Gauge("replic.origin.byte_share").Set(res.originShare)
		m.add(arm.name, res.avail*100, res.p95, res.originShare*100,
			replicaPeak(res.timeline), float64(res.timeline[len(res.timeline)-1]))
	}
	return m
}

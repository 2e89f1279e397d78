package experiments

import (
	"time"

	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet/fault"
)

// X20: what saturation does to a server that refuses to say no. X18
// showed the feudal single-origin arm collapsing under a flash crowd and
// X19 showed replication buying the capacity back — but both left the
// servers naive: every arriving request queues on the home uplink
// forever, so under the spike a reply is seconds-to-minutes stale by the
// time it serializes, the client has long timed out, and the uplink burns
// its whole budget on answers nobody is waiting for. Worse, a saturated
// origin loses its own control plane: X19's adverts and directory calls
// sit in the same FIFO as the doomed bulk replies, so the mechanism that
// could relieve the overload is itself starved by it.
//
// X20 replays the X18 flash-crowd schedule against the same two
// architectures with and without internal/overload on the serving side:
//
//	feudal   one home-uplink origin serving content.get (X18's ostatus
//	         arm, but clients carry the X16 resilient transport in every
//	         arm so only the server side varies)
//	replic   the X19 world — directory + home-uplink providers with
//	         adaptive replication at package-default cadence — with the
//	         directory and every provider protected in the ovld arms
//
// naive arms serve first-come-first-served with unbounded queueing; ovld
// arms run the bounded deadline-aware queue, AIMD admission, and the
// strict-priority control lane, shedding excess with a RetryAfter hint
// that the clients' resil.Classify hook turns into paced, non-breaking
// retries. Every arm runs clean and under the battery's rolling churn.
//
// Per arm: flash-avail% (within-SLA availability over requests launched
// inside the flash window — the gate measure, since the spike is where
// the arms differ), whole-run avail%, p95 latency, ctl-p95 (p95 of a
// 2s-cadence control ping against the hottest server, timeouts counted at
// the full timeout — the "does the control plane survive" probe), sheds
// (server-side rejections incl. CoDel front drops), and the replica-count
// peak (replic arms; the convergence the control lane is buying).

// x20FlashWindow is the schedule slice the gate scores: ramp start to
// decay end — exactly where demand exceeds a home uplink.
func x20FlashWindow(sp flashSpec) (time.Duration, time.Duration) {
	return sp.flash.Start, sp.flash.Start + sp.flash.Ramp + sp.flash.Decay
}

// x20OvCfg is the protected arms' overload config. The knobs follow from
// the hardware: a 64KiB reply occupies a 1Mbit/s uplink for ~0.5s, so an
// SLO of 4s admits roughly the queue the SLA (6–8s) can absorb after
// transit, the 2s CoDel target drops anything that has already waited
// half the objective, and MaxLimit 8 lets the AIMD controller explore up
// to ~8 concurrent reply serializations before sojourn feedback cuts it.
func x20OvCfg() overload.Config {
	return overload.Config{
		Enabled:        true,
		QueueLen:       32,
		Target:         2 * time.Second,
		SLO:            4 * time.Second,
		MinLimit:       1,
		MaxLimit:       8,
		RetryAfterBase: time.Second,
	}
}

// x20Resil is the client transport every arm runs: X16 defaults plus the
// shed classifier. Holding the client stack constant across naive and
// ovld arms is the experiment's control — only the serving side varies.
func x20Resil() resil.Config {
	cfg := resil.Defaults()
	cfg.Classify = overload.Classify
	return cfg
}

// x20ReplicCfg is the replic arms' replication policy: package-default
// cadence (30s half-life, 15s ticks — not X19's deliberately hot tuning)
// with the spec's floor and cap. The slower control plane is the point:
// it widens the window in which a saturated origin's adverts must fight
// its bulk backlog, which is exactly what the ovld arms' priority lane
// rescues.
func x20ReplicCfg(sp flashSpec) replic.Config {
	cfg := replic.Defaults()
	cfg.FloorK = sp.k
	if cfg.Cap > sp.providers {
		cfg.Cap = sp.providers
	}
	return cfg
}

// x20FlashAvail scores within-SLA availability over the flash window.
func x20FlashAvail(outcomes []slaOutcome, sp flashSpec) float64 {
	ws, we := x20FlashWindow(sp)
	tot, ok := 0, 0
	for _, o := range outcomes {
		if o.at >= ws && o.at <= we {
			tot++
			if o.ok {
				ok++
			}
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(ok) / float64(tot)
}

// x20Arms is the battery in presentation order: {feudal origin, replic
// swarm} × {naive, overload-controlled} × {clean, rolling churn}, every
// arm on the same client transport and with the control-plane probe on.
func x20Arms(sp flashSpec) []flashArm {
	swarm, ovld := x20ReplicCfg(sp), x20OvCfg()
	churn := fault.RollingChurn()
	arms := []flashArm{
		{name: "feudal-naive-clean"},
		{name: "feudal-naive-churn", scenario: &churn},
		{name: "feudal-ovld-clean", overload: ovld},
		{name: "feudal-ovld-churn", overload: ovld, scenario: &churn},
		{name: "replic-naive-clean", shape: shapeSwarm, replic: swarm},
		{name: "replic-naive-churn", shape: shapeSwarm, replic: swarm, scenario: &churn},
		{name: "replic-ovld-clean", shape: shapeSwarm, replic: swarm, overload: ovld},
		{name: "replic-ovld-churn", shape: shapeSwarm, replic: swarm, overload: ovld, scenario: &churn},
	}
	for i := range arms {
		arms[i].resil, arms[i].probe = x20Resil(), true
	}
	return arms
}

// overloadMatrix is the numeric core of X20: one shared flash schedule
// through every arm.
func overloadMatrix(env Env) Matrix {
	sp := flashSpecFor(env.Tiny)
	reqs, rs := x18Stream(env.Seed, sp, "flash")
	arms := x20Arms(sp)
	m := Matrix{Cols: []string{"flash-avail%", "avail%", "p95(s)", "ctl-p95(s)", "shed", "repl-peak"}}
	for _, arm := range arms {
		res := runFlashArm(env, sp, arm, reqs, rs)
		peak := 0.0
		if res.dir != nil {
			// The peak the control lane is buying: over the horizon's
			// samples, not the post-grace settle sample.
			peak = replicaPeak(res.timeline[:flashTimeline+1])
		}
		m.add(arm.name, x20FlashAvail(res.outcomes, sp)*100, res.avail*100, res.p95, res.ctlP95, res.shed, peak)
	}
	return m
}

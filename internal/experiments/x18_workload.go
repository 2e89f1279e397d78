package experiments

import (
	"fmt"
	"slices"

	"repro/internal/workload"
)

// X18: the workload engine meets the architecture question. X2–X16 probe
// subsystems with synthetic fixed-cadence probes; X18 drives three whole
// architectures with the same realistic demand curve — Zipf-popular
// content, diurnal load with per-region phase offsets, and a flash crowd
// that makes the catalog's most obscure object ~10³× hotter over a few
// virtual minutes (an unknown blog hitting the global front page; the
// paper's §2 "why self-hosting dies" scenario).
//
// The three arms get identical hardware budgets — every serving machine
// is a home-broadband link (≈1 Mbit/s up) — and the exact same request
// schedule, produced once by internal/workload.Generate. Only the
// architecture differs:
//
//	ostatus-1srv    the feudal baseline a self-hoster escapes *to*: one
//	                origin box answers everything; clients time out, no
//	                retry
//	fed-replicated  a replicated federation (Matrix-style): K full
//	                replicas, clients home round-robin and fail over one
//	                hop
//	p2p-webapp      the hostless webapp: every successful visitor
//	                becomes a seeder, so the flash crowd brings its own
//	                capacity
//
// Per arm: avail% (requests answered within the SLA latency budget —
// X16's user-experienced measure), p95 latency of completed requests,
// origin% (share of served payload bytes carried by the busiest
// single machine — 100 for the feudal arm by construction), and msg/node
// substrate traffic. Everything is a pure function of the seed: the
// schedule, every keypair, and every retry come off deterministic
// streams, so the table is byte-identical at any trial-worker count.

// WorkloadVariants are the schedule shapes cmd/feudalism's -workload
// flag selects between. "flash" is the headline (registry) variant.
func WorkloadVariants() []string { return []string{"zipf", "diurnal", "flash"} }

// x18Stream builds the shared request schedule for one workload variant:
// "zipf" is steady-rate pure popularity, "diurnal" adds the day/night
// cycle, "flash" adds the spike on the least-popular object.
func x18Stream(seed int64, sp flashSpec, wl string) ([]workload.Request, *workload.RegionSet) {
	rs := workload.DefaultRegions(sp.regions, sp.day)
	cfg := workload.StreamConfig{
		Seed:    seed,
		Clients: sp.clients,
		Horizon: sp.horizon,
		Pop:     workload.NewZipf(sp.objects, sp.zipfS),
		Regions: &rs,
	}
	dc := workload.DiurnalConfig{Mean: sp.meanRate, Period: sp.day}
	switch wl {
	case "zipf":
	case "diurnal":
		dc.Amp, dc.Floor = sp.amp, sp.floor
	case "flash":
		dc.Amp, dc.Floor = sp.amp, sp.floor
		cfg.Flash = sp.flash
	default:
		panic(fmt.Sprintf("x18: unknown workload variant %q (want zipf|diurnal|flash)", wl))
	}
	cfg.Rate = workload.NewDiurnal(dc)
	return workload.Generate(cfg), &rs
}

// x18Arms is the battery: the three architectures, none with a
// resilience layer or overload control.
func x18Arms() []flashArm {
	return []flashArm{
		{name: "ostatus-1srv", shape: shapeFeudal},
		{name: "fed-replicated", shape: shapeFederated},
		{name: "p2p-webapp", shape: shapeP2P},
	}
}

// workloadMatrix is the numeric core of X18: one shared schedule, three
// architectures, four measures.
func workloadMatrix(env Env, wl string) Matrix {
	sp := flashSpecFor(env.Tiny)
	reqs, rs := x18Stream(env.Seed, sp, wl)
	m := Matrix{Cols: []string{"avail%", "p95(s)", "origin%", "msg/node"}}
	for _, arm := range x18Arms() {
		res := runFlashArm(env, sp, arm, reqs, rs)
		if arm.shape == shapeP2P {
			// X18-only observability: these register on this arm's network
			// alone, after every pre-existing experiment's metrics are
			// already fixed.
			flashReqs, slaOK := 0, 0
			for _, r := range reqs {
				if sp.flash.Active() && r.Object == sp.flash.Object && r.At >= sp.flash.Start {
					flashReqs++
				}
			}
			for _, o := range res.outcomes {
				if o.ok {
					slaOK++
				}
			}
			reg := res.nw.Obs()
			reg.Counter("workload.req.launched").Set(int64(len(reqs)))
			reg.Counter("workload.req.sla_ok").Set(int64(slaOK))
			reg.Counter("workload.req.flash").Set(int64(flashReqs))
			reg.Gauge("workload.flash.peak_x").Set(sp.flash.Peak)
		}
		m.add(arm.name, res.avail*100, res.p95, res.originShare*100, res.msgPerNode)
	}
	return m
}

// x18Exp describes X18 for one workload variant; the registry entry is
// the "flash" one.
func x18Exp(wl string) descriptor {
	sp := flashSpecFor(false)
	shape := wl
	if wl == "flash" {
		shape = "flash-crowd"
	}
	return descriptor{
		id: "x18", desc: "X18: flash-crowd workload, feudal single server vs replicated federation vs p2p webapp",
		title: titles(fmt.Sprintf("X18: %s workload — %d clients, %d objects, SLA %v; feudal vs federated vs p2p on equal home links",
			wl, sp.clients, sp.objects, sp.sla),
			fmt.Sprintf("X18 (tiny): %s workload", shape)),
		multiTitle: fmt.Sprintf("X18: %s workload — feudal vs federated vs p2p on equal home links", shape),
		rowHeader:  "Architecture",
		cell:       []string{"%.1f%%", "%.2fs", "%.1f%%", "%.0f"},
		multi:      []string{"%.1f", "%.2f", "%.1f", "%.0f"},
		tiny:       []string{"%.1f"},
		matrix:     func(env Env) Matrix { return workloadMatrix(env, wl) },
	}
}

// WorkloadExperiment returns X18 run on one workload variant (see
// WorkloadVariants), with Run and Multi both on that schedule; false
// for an unknown variant. The registry's x18 is the "flash" variant.
func WorkloadExperiment(wl string) (Experiment, bool) {
	if !slices.Contains(WorkloadVariants(), wl) {
		return Experiment{}, false
	}
	return x18Exp(wl).experiment(), true
}

package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/webapp"
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

// x18Federated: K full replicas on home links; clients home round-robin
// and fail over exactly one hop on error.
func x18Federated(env Env, sp flashSpec, reqs []workload.Request, rs *workload.RegionSet) flashResult {
	nw := env.Net()
	servers := make([]*simnet.RPCNode, sp.servers)
	served := make([]float64, sp.servers)
	for i := range servers {
		i := i
		servers[i] = simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
		servers[i].Serve("content.get", func(from simnet.NodeID, req any) (any, int) {
			served[i] += float64(32 + sp.objBytes)
			return req, 32 + sp.objBytes
		})
	}
	clients := make([]*simnet.RPCNode, sp.clients)
	for i := range clients {
		clients[i] = simnet.NewRPCNode(nw.AddNode())
	}
	rs.Apply(nw, nodeIDs(clients))
	base := nw.Now()
	meter := newSLAMeter(sp.sla, sp.clients)
	sent := sentMeter(nw, base)
	for _, r := range reqs {
		r := r
		nw.Schedule(base+r.At, func() {
			done := meter.launch(r.Client, r.At, nw.Now(), nw.Now)
			home := r.Client % sp.servers
			clients[r.Client].Call(servers[home].Node().ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) {
					if err == nil {
						done(true)
						return
					}
					next := (home + 1) % sp.servers
					clients[r.Client].Call(servers[next].Node().ID(), "content.get", r.Object, 200, sp.timeout,
						func(resp any, err error) { done(err == nil) })
				})
		})
	}
	nw.Run(base + sp.horizon + flashGrace)
	var total, busiest float64
	for _, b := range served {
		total += b
		if b > busiest {
			busiest = b
		}
	}
	share := 0.0
	if total > 0 {
		share = busiest / total
	}
	score := meter.score()
	return flashResult{
		flashScore: flashScore{avail: score.avail, p95: score.p95, originShare: share},
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(nw.NumNodes()),
	}
}

// x18P2P: the hostless-webapp arm. One author (home link) publishes each
// object as a site; clients are webapp peers. A request Forgets any local
// copy first — each hit models a fresh user on that device — then Visits,
// so the blobs always cross the network; between its own requests a
// client keeps seeding what it last fetched, which is exactly how the
// flash crowd brings its own capacity. An optional fault scenario (the
// conformance battery) crashes/degrades client nodes mid-run.
func x18P2P(env Env, sp flashSpec, reqs []workload.Request, rs *workload.RegionSet, sc *fault.Scenario) flashResult {
	nw := env.Net()
	web := newWebSwarm(nw, simnet.HomeBroadbandProfile(), sp.timeout)
	author := web.author
	clients := web.join(sp.clients, simnet.DatacenterProfile(), dht.Config{}, webapp.PeerConfig{}, 20*time.Millisecond)
	ids := nodeIDs(clients)
	rs.Apply(nw, ids)
	nw.Run(nw.Now() + time.Minute)

	// One site per object, each under its own deterministic keypair.
	sites := make([]cryptoutil.Hash, sp.objects)
	for o := range sites {
		o := o
		owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
		if err != nil {
			return flashResult{}
		}
		payload := make([]byte, sp.objBytes)
		for i := range payload {
			payload[i] = byte(o*31 + i)
		}
		author.Publish(owner, 1, map[string][]byte{"blob.bin": payload}, cryptoutil.Hash{},
			func(m *webapp.Manifest) { sites[o] = m.Site })
	}
	nw.Run(nw.Now() + time.Minute)
	for _, s := range sites {
		if s.IsZero() {
			return flashResult{}
		}
	}

	base := nw.Now()
	if sc != nil {
		sc.Build(env.Seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	meter := newSLAMeter(sp.sla, sp.clients)
	sent := sentMeter(nw, base)
	flashReqs := 0
	for _, r := range reqs {
		r := r
		if sp.flash.Active() && r.Object == sp.flash.Object && r.At >= sp.flash.Start {
			flashReqs++
		}
		nw.Schedule(base+r.At, func() {
			done := meter.launch(r.Client, r.At, nw.Now(), nw.Now)
			p := clients[r.Client]
			p.Forget(sites[r.Object])
			p.Visit(sites[r.Object], func(fs map[string][]byte, err error) {
				done(err == nil && len(fs) == 1)
			})
		})
	}
	nw.Run(base + sp.horizon + flashGrace)

	var swarm float64
	for _, p := range clients {
		swarm += float64(p.BlobBytesServed)
	}
	authorBytes := float64(author.BlobBytesServed)
	share := 0.0
	if authorBytes+swarm > 0 {
		share = authorBytes / (authorBytes + swarm)
	}
	// X18-only observability: these register on this arm's network alone,
	// after every pre-existing experiment's metrics are already fixed.
	score := meter.score()
	reg := nw.Obs()
	reg.Counter("workload.req.launched").Set(int64(len(reqs)))
	reg.Counter("workload.req.sla_ok").Set(int64(score.ok))
	reg.Counter("workload.req.flash").Set(int64(flashReqs))
	reg.Gauge("workload.flash.peak_x").Set(sp.flash.Peak)
	return flashResult{
		flashScore: flashScore{avail: score.avail, p95: score.p95, originShare: share},
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(nw.NumNodes()),
		outcomes:   score.outcomes,
	}
}

// workloadMatrix is the numeric core of X18: one shared schedule, three
// architectures, four measures.
func workloadMatrix(env Env, wl string) Matrix {
	sp := flashSpecFor(env.Tiny)
	reqs, rs := x18Stream(env.Seed, sp, wl)
	m := NewMatrix(
		[]string{"ostatus-1srv", "fed-replicated", "p2p-webapp"},
		[]string{"avail%", "p95(s)", "origin%", "msg/node"},
	)
	// The feudal baseline is the flash world's single origin with nothing
	// layered on: one RPC per request, no retry.
	cells := []flashResult{
		runFlashArm(env, sp, flashArm{}, reqs, rs),
		x18Federated(env, sp, reqs, rs),
		x18P2P(env, sp, reqs, rs, nil),
	}
	for r, c := range cells {
		m.Vals[r][0] = c.avail * 100
		m.Vals[r][1] = c.p95
		m.Vals[r][2] = c.originShare * 100
		m.Vals[r][3] = c.msgPerNode
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

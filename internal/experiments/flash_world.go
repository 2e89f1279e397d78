package experiments

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/workload"
)

// The flash-crowd world. X18, X19 and X20 replay one workload schedule —
// Zipf-popular content, a diurnal cycle, and a spike that makes the
// catalog's most obscure object ~10³× hotter — against serving
// architectures built on identical hardware budgets: every serving machine
// is a home-broadband link (≈1 Mbit/s up). Two world shapes cover X18's
// feudal arm and all of X19 and X20:
//
//	feudal  one origin box on a home uplink answers every content.get
//	swarm   a replica directory, home-uplink providers holding K static
//	        replicas per object (internal/replic decides whether the set
//	        then grows with demand), and clients that resolve holders
//	        through the directory
//
// A flashArm picks the shape and everything layered on it; runFlashArm
// builds the world, replays the schedule through one SLA meter and returns
// the scoreboard. The batteries of X19 and X20 are lists of arms.

// flashSpec sizes one flash-crowd world.
type flashSpec struct {
	clients   int
	objects   int
	objBytes  int
	servers   int // X18 fed-replicated replica count
	providers int // swarm provider population
	k         int // swarm initial replicas per object; also the GC floor
	regions   int
	zipfS     float64
	meanRate  float64 // population-wide req/s, time-averaged
	amp       float64 // diurnal amplitude
	floor     float64 // diurnal night floor
	horizon   time.Duration
	day       time.Duration // diurnal period (virtual)
	sla       time.Duration // latency budget per request
	timeout   time.Duration // client RPC/visit timeout
	flash     workload.Flash
}

func flashSpecFor(tiny bool) flashSpec {
	if tiny {
		return flashSpec{
			clients: 12, objects: 8, objBytes: 24 << 10, servers: 3, providers: 4, k: 2, regions: 2,
			zipfS: 1.1, meanRate: 0.25, amp: 0.6, floor: 0.5,
			horizon: 10 * time.Minute, day: 5 * time.Minute,
			sla: 6 * time.Second, timeout: 30 * time.Second,
			flash: workload.Flash{
				Object: 7, Start: 3 * time.Minute, Ramp: time.Minute,
				Peak: 1000, Decay: 90 * time.Second,
			},
		}
	}
	return flashSpec{
		clients: 36, objects: 24, objBytes: 64 << 10, servers: 4, providers: 8, k: 2, regions: 4,
		zipfS: 1.1, meanRate: 0.3, amp: 0.6, floor: 0.5,
		horizon: 30 * time.Minute, day: 15 * time.Minute,
		sla: 8 * time.Second, timeout: 30 * time.Second,
		flash: workload.Flash{
			Object: 23, Start: 10 * time.Minute, Ramp: 2 * time.Minute,
			Peak: 1000, Decay: 3 * time.Minute,
		},
	}
}

const (
	// flashGrace is how long past the horizon an arm runs so in-flight
	// requests either finish or time out before scoring.
	flashGrace = 90 * time.Second
	// flashTimeline is how many times across the horizon a swarm arm
	// samples the directory's total replica count.
	flashTimeline = 40
	// ctlPingEvery is the control-probe cadence.
	ctlPingEvery = 2 * time.Second
	// ctlPingTimeout caps one probe; a timed-out probe completes at this
	// latency, so a starved control plane cannot hide from the percentile.
	ctlPingTimeout = 10 * time.Second
)

// flashArm is one row of a flash-crowd battery.
type flashArm struct {
	name string
	// replic selects the swarm world and its replication policy (the zero
	// Config is static-K: every object keeps its initial replicas forever).
	// nil selects the feudal single-origin world.
	replic *replic.Config
	// resil is the client transport; overload, when enabled, puts every
	// server (origin, or directory and providers) behind overload control.
	// In the swarm they replace the replic config's own two fields.
	resil    resil.Config
	overload overload.Config
	// scenario, when non-nil, is the fault plan applied from measurement
	// start. Clients and providers are fault-eligible; the origin or
	// directory and the probe monitor are anchors (the tracker convention
	// X18 set: crashing the only rendezvous measures the crash, not the
	// architecture).
	scenario *fault.Scenario
	// probe adds X20's control-plane instrumentation: substrate queue
	// metrics, a ctl.ping stream from a dedicated monitor node against the
	// server the flash concentrates on, and the server-side shed total.
	probe bool
}

// flashScore is the part of an arm's outcome that an engine-parametric
// arm must reproduce exactly at every engine layout; it compares with ==.
type flashScore struct {
	avail       float64 // fraction of requests answered OK within the SLA
	p95         float64 // seconds, over completed requests
	originShare float64 // share of served payload bytes carried by the origin(s)
	ctlP95      float64 // probe arms: p95 of the control ping, seconds
	shed        float64 // probe arms: server-side rejections incl. CoDel front drops
}

// flashResult is one arm's full outcome.
type flashResult struct {
	flashScore
	// msgPerNode is substrate messages sent per node from measurement
	// start. It is not part of the cross-layout contract: a hedge timer
	// that ties with its reply fires first on the legacy engine and is
	// cancelled first on the sharded one, so the legacy engine sends hedges
	// the sharded engine never does — same outcomes, different traffic.
	msgPerNode float64
	outcomes   []slaOutcome
	// timeline is the swarm's total replica count sampled flashTimeline+1
	// times across the horizon, plus one settle sample after the grace: the
	// flash tail can keep swarm demand above ColdRate to the very edge of
	// the horizon (tiny scale especially), so the horizon's final sample
	// may catch the set one or two releases short of the floor. The last
	// entry is the garbage-collected steady state.
	timeline []int
	// The finished world, for per-experiment gauges and the conformance
	// suite's anchor checks. dir and provs are nil in the feudal world.
	nw    *simnet.Network
	dir   *replic.Directory
	provs []*replic.Provider
}

// runFlashArm builds the arm's world on env and replays the schedule
// against it.
func runFlashArm(env Env, sp flashSpec, arm flashArm, reqs []workload.Request, rs *workload.RegionSet) flashResult {
	return buildFlashWorld(env, sp, arm, rs).replay(reqs)
}

// flashWorld is an arm's machines on their network before anything runs
// on them: the anchor (the origin, or the swarm's directory), the clients,
// the swarm's providers and the probe arm's monitor.
type flashWorld struct {
	seed    int64
	sp      flashSpec
	arm     flashArm
	rs      *workload.RegionSet
	nw      *simnet.Network
	anchor  *simnet.Node
	clients []*simnet.Node
	provs   []*simnet.Node
	ids     []simnet.NodeID // clients, then providers: the fault-eligible nodes
	monitor *simnet.RPCNode
}

// buildFlashWorld adds the arm's machines to a network env builds, each
// on its region's link. No protocol is installed and nothing has been
// sent, so their links can still be changed before replay.
func buildFlashWorld(env Env, sp flashSpec, arm flashArm, rs *workload.RegionSet) *flashWorld {
	nw := env.Net()
	if arm.probe {
		nw.EnableQueueMetrics()
	}
	w := &flashWorld{seed: env.Seed, sp: sp, arm: arm, rs: rs, nw: nw}

	// The anchor first, then clients, then providers: client i keeps the
	// region the schedule generator gave it and providers follow in the
	// same round-robin.
	if arm.replic == nil {
		w.anchor = nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
	} else {
		w.anchor = nw.AddNode()
	}
	w.clients = make([]*simnet.Node, sp.clients)
	w.ids = make([]simnet.NodeID, 0, sp.clients+sp.providers)
	for i := range w.clients {
		w.clients[i] = nw.AddNode()
		w.ids = append(w.ids, w.clients[i].ID())
	}
	if arm.replic != nil {
		w.provs = make([]*simnet.Node, sp.providers)
		for i := range w.provs {
			w.provs[i] = nw.AddNode()
			w.ids = append(w.ids, w.provs[i].ID())
		}
	}
	rs.Apply(nw, w.ids)
	if arm.probe {
		w.monitor = simnet.NewRPCNode(nw.AddNode())
	}
	return w
}

// replay installs the arm's serving stack on the world, replays the
// schedule through one SLA meter and scores the arm.
func (w *flashWorld) replay(reqs []workload.Request) flashResult {
	nw, sp, arm, rs := w.nw, w.sp, w.arm, w.rs
	anchor, clientNodes, provNodes, ids, monitor := w.anchor, w.clients, w.provs, w.ids, w.monitor
	res := flashResult{nw: nw}

	// get issues one request; hot is the server the flash concentrates on.
	var get func(r workload.Request, done func(bool))
	var hot *simnet.RPCNode
	if arm.replic == nil {
		hot = simnet.NewRPCNode(anchor)
		overload.New(hot, arm.overload).Protect("content.get", func(from simnet.NodeID, req any) (any, int) {
			return req, 32 + sp.objBytes
		})
		clients := make([]simnet.Caller, sp.clients)
		for i, n := range clientNodes {
			clients[i] = resil.Wrap(simnet.NewRPCNode(n), arm.resil)
		}
		get = func(r workload.Request, done func(bool)) {
			clients[r.Client].Call(anchor.ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) { done(err == nil) })
		}
		res.originShare = 1
	} else {
		cfg := *arm.replic
		cfg.Resilience, cfg.Overload = arm.resil, arm.overload
		res.dir = replic.NewDirectoryWith(anchor, sp.k, cfg.Overload)
		regionOf := make(map[simnet.NodeID]int, len(ids))
		for i, id := range ids {
			regionOf[id] = rs.Assign(i)
		}
		provIDs := ids[sp.clients:]
		res.provs = make([]*replic.Provider, sp.providers)
		for i, n := range provNodes {
			res.provs[i] = replic.NewProvider(n, cfg, anchor.ID(), sp.regions, regionOf)
			res.provs[i].SetPeers(provIDs)
		}
		clients := make([]*replic.Client, sp.clients)
		for i, n := range clientNodes {
			clients[i] = replic.NewClient(n, cfg, anchor.ID(), regionOf[n.ID()], regionOf, rs.Extra)
		}
		// Seed the catalog: object o's origin is provider o%P (pinned), plus
		// k-1 static replicas on the following providers.
		objs := make([]cryptoutil.Hash, sp.objects)
		for o := range objs {
			payload := make([]byte, sp.objBytes)
			for i := range payload {
				payload[i] = byte(o*31 + i)
			}
			objs[o] = cryptoutil.SumHash(payload)
			origin := o % sp.providers
			res.provs[origin].Put(objs[o], payload, true)
			for j := 1; j < sp.k; j++ {
				res.provs[(origin+j)%sp.providers].Put(objs[o], payload, false)
			}
		}
		for _, p := range res.provs {
			p.Start()
		}
		get = func(r workload.Request, done func(bool)) {
			clients[r.Client].Get(objs[r.Object], sp.timeout, func(data []byte, err error) {
				done(err == nil && len(data) == sp.objBytes)
			})
		}
		hot = res.provs[sp.flash.Object%sp.providers].RPC()
		nw.Run(nw.Now() + time.Minute) // announces settle
	}

	base := nw.Now()
	sent := nw.Trace().Sent
	if arm.scenario != nil {
		arm.scenario.Build(w.seed, ids, sp.horizon).ApplyAt(nw, base)
	}
	var ctl *slaMeter
	if arm.probe {
		hot.Serve("ctl.ping", func(from simnet.NodeID, req any) (any, int) { return req, 16 })
		hot.SetMethodLane("ctl.ping", simnet.LaneCtrl)
		ctl = newSLAMeter(ctlPingTimeout, 1)
		ctl.every(nw, base, ctlPingEvery, sp.horizon, ctlPingEvery, monitor.Node().Now, func(done func(bool)) {
			monitor.Call(hot.Node().ID(), "ctl.ping", nil, 32, ctlPingTimeout,
				func(resp any, err error) { done(err == nil) })
		})
	}
	if res.dir != nil {
		for i := 0; i <= flashTimeline; i++ {
			at := base + sp.horizon*time.Duration(i)/time.Duration(flashTimeline)
			nw.Schedule(at, func() { res.timeline = append(res.timeline, res.dir.TotalReplicas()) })
		}
	}
	meter := newSLAMeter(sp.sla, sp.clients)
	for _, r := range reqs {
		launch := base + r.At
		nw.Schedule(launch, func() {
			get(r, meter.launch(r.Client, r.At, launch, clientNodes[r.Client].Now))
		})
	}
	nw.Run(base + sp.horizon + flashGrace)

	score := meter.score()
	res.avail, res.p95, res.outcomes = score.avail, score.p95, score.outcomes
	res.msgPerNode = float64(nw.Trace().Sent-sent) / float64(nw.NumNodes())
	if res.dir != nil {
		res.timeline = append(res.timeline, res.dir.TotalReplicas())
		var total, origin int64
		for _, p := range res.provs {
			total += p.BytesServed
			origin += p.OriginBytes
		}
		if total > 0 {
			res.originShare = float64(origin) / float64(total)
		}
	}
	if arm.probe {
		res.ctlP95 = ctl.score().p95
		// Reading the counters creates them at zero on naive arms, which is
		// deterministic and keeps the snapshot schema identical across arms.
		reg := nw.Obs()
		res.shed = float64(reg.Counter("overload.shed").Value() + reg.Counter("overload.codel.dropped").Value())
	}
	return res
}

// replicaPeak is the largest sample of a replica-count timeline.
func replicaPeak(timeline []int) float64 {
	peak := 0
	for _, v := range timeline {
		if v > peak {
			peak = v
		}
	}
	return float64(peak)
}

package experiments

import (
	"slices"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/webapp"
	"repro/internal/workload"
)

// The flash-crowd world. X18, X19 and X20 replay one workload schedule —
// Zipf-popular content, a diurnal cycle, and a spike that makes the
// catalog's most obscure object ~10³× hotter — against serving
// architectures built on identical hardware budgets: every serving machine
// is a home-broadband link (≈1 Mbit/s up). Four world shapes cover every
// arm of the three batteries:
//
//	feudal     one origin box on a home uplink answers every content.get
//	swarm      a replica directory, home-uplink providers holding K static
//	           replicas per object (internal/replic decides whether the
//	           set then grows with demand), and clients that resolve
//	           holders through the directory
//	federated  sp.servers full replicas on home uplinks; clients home
//	           round-robin and fail over exactly one hop on error
//	p2p        the hostless webapp: a tracker, one home-link author that
//	           publishes each object as a site, and visitor peers that
//	           seed what they last fetched
//
// A flashArm picks the shape and everything layered on it; runFlashArm
// builds the world, replays the schedule through one SLA meter and returns
// the scoreboard. Each battery is a list of arms.

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

// flashShape is the serving architecture of an arm's world.
type flashShape int

const (
	shapeFeudal flashShape = iota
	shapeSwarm
	shapeFederated
	shapeP2P
)

// flashArm is one row of a flash-crowd battery.
type flashArm struct {
	name  string
	shape flashShape
	// replic is the swarm's replication policy (the zero Config is
	// static-K: every object keeps its initial replicas forever). Only the
	// swarm reads it.
	replic replic.Config
	// resil is the client transport; overload, when enabled, puts every
	// server (origin, or directory and providers) behind overload control.
	// In the swarm they replace the replic config's own two fields.
	resil    resil.Config
	overload overload.Config
	// scenario, when non-nil, is the fault plan applied from measurement
	// start. Clients and the swarm's providers are fault-eligible; the
	// origin, the federation's replicas, the directory, the tracker and
	// author, and the probe monitor are anchors (the tracker convention X18
	// set: crashing the only rendezvous measures the crash, not the
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
	// suite's anchor checks. dir and provs are nil outside the swarm.
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
// on them: the swarm's directory, the servers (the feudal origin, the
// federation's replicas or the swarm's providers), the clients, the p2p
// shape's author and the probe arm's monitor.
type flashWorld struct {
	seed    int64
	sp      flashSpec
	arm     flashArm
	rs      *workload.RegionSet
	nw      *simnet.Network
	dir     *simnet.Node
	servers []*simnet.Node
	clients []*simnet.Node
	ids     []simnet.NodeID // clients, then providers: the fault-eligible nodes
	author  *webapp.Peer    // the p2p sites' publisher
	peers   []*webapp.Peer  // the p2p clients
	monitor *simnet.RPCNode
}

// buildFlashWorld adds the arm's machines to a network env builds, each
// client and provider on its region's link. Nothing has been sent, so
// their links can still be changed before replay.
func buildFlashWorld(env Env, sp flashSpec, arm flashArm, rs *workload.RegionSet) *flashWorld {
	nw := env.Net()
	if arm.probe {
		nw.EnableQueueMetrics()
	}
	w := &flashWorld{seed: env.Seed, sp: sp, arm: arm, rs: rs, nw: nw}

	// The serving side first, then clients, then the swarm's providers:
	// client i keeps the region the schedule generator gave it and
	// providers follow in the same round-robin.
	switch arm.shape {
	case shapeFeudal, shapeFederated:
		n := 1
		if arm.shape == shapeFederated {
			n = sp.servers
		}
		w.servers = make([]*simnet.Node, n)
		for i := range w.servers {
			w.servers[i] = nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		}
	case shapeSwarm:
		w.dir = nw.AddNode()
	case shapeP2P:
		// The tracker, the home-link author, then one peer per client whose
		// DHT half bootstraps through the author 20 ms after the last.
		web := newWebSwarm(nw, simnet.HomeBroadbandProfile(), sp.timeout)
		w.author = web.author
		w.peers = web.join(sp.clients, simnet.DatacenterProfile(), dht.Config{}, webapp.PeerConfig{}, 20*time.Millisecond)
	}
	w.clients = make([]*simnet.Node, sp.clients)
	w.ids = make([]simnet.NodeID, 0, sp.clients+sp.providers)
	for i := range w.clients {
		if w.peers != nil {
			w.clients[i] = w.peers[i].Node()
		} else {
			w.clients[i] = nw.AddNode()
		}
		w.ids = append(w.ids, w.clients[i].ID())
	}
	if arm.shape == shapeSwarm {
		w.servers = make([]*simnet.Node, sp.providers)
		for i := range w.servers {
			w.servers[i] = nw.AddNode()
			w.ids = append(w.ids, w.servers[i].ID())
		}
	}
	rs.Apply(nw, w.ids)
	if arm.probe {
		w.monitor = simnet.NewRPCNode(nw.AddNode())
	}
	return w
}

// flashPayload is object o's content: n bytes that differ per object.
func flashPayload(o, n int) []byte {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(o*31 + i)
	}
	return payload
}

// replay installs the arm's serving stack on the world, replays the
// schedule through one SLA meter and scores the arm.
func (w *flashWorld) replay(reqs []workload.Request) flashResult {
	nw, sp, arm, rs := w.nw, w.sp, w.arm, w.rs
	res := flashResult{nw: nw}

	// Each shape sets get, which issues one request; hot, the server the
	// flash concentrates on; and served, the payload bytes answered by the
	// origin (the busiest server in a federation) and by every server.
	var get func(r workload.Request, done func(bool))
	var hot *simnet.RPCNode
	var served func() (origin, total int64)
	switch arm.shape {
	case shapeFeudal, shapeFederated:
		// The feudal origin is a federation of one. Client i homes on server
		// i%servers and, in a federation, fails over exactly one hop on
		// error.
		bytes := make([]int64, len(w.servers))
		for i, n := range w.servers {
			overload.New(simnet.NewRPCNode(n), arm.overload).Protect("content.get", func(from simnet.NodeID, req any) (any, int) {
				bytes[i] += int64(32 + sp.objBytes)
				return req, 32 + sp.objBytes
			})
		}
		clients := make([]simnet.Caller, sp.clients)
		for i, n := range w.clients {
			clients[i] = resil.Wrap(simnet.NewRPCNode(n), arm.resil)
		}
		get = func(r workload.Request, done func(bool)) {
			home := r.Client % len(w.servers)
			clients[r.Client].Call(w.servers[home].ID(), "content.get", r.Object, 200, sp.timeout,
				func(resp any, err error) {
					if err == nil || len(w.servers) == 1 {
						done(err == nil)
						return
					}
					next := w.servers[(home+1)%len(w.servers)].ID()
					clients[r.Client].Call(next, "content.get", r.Object, 200, sp.timeout,
						func(resp any, err error) { done(err == nil) })
				})
		}
		// A federation's clients spread over every replica, so no one is
		// hotter than the first.
		hot = simnet.NewRPCNode(w.servers[0])
		served = func() (origin, total int64) {
			for _, b := range bytes {
				origin, total = max(origin, b), total+b
			}
			return origin, total
		}
	case shapeSwarm:
		cfg := arm.replic
		cfg.Resilience, cfg.Overload = arm.resil, arm.overload
		res.dir = replic.NewDirectoryWith(w.dir, sp.k, cfg.Overload)
		regionOf := make(map[simnet.NodeID]int, len(w.ids))
		for i, id := range w.ids {
			regionOf[id] = rs.Assign(i)
		}
		provIDs := w.ids[sp.clients:]
		res.provs = make([]*replic.Provider, sp.providers)
		for i, n := range w.servers {
			res.provs[i] = replic.NewProvider(n, cfg, w.dir.ID(), sp.regions, regionOf)
			res.provs[i].SetPeers(provIDs)
		}
		clients := make([]*replic.Client, sp.clients)
		for i, n := range w.clients {
			clients[i] = replic.NewClient(n, cfg, w.dir.ID(), regionOf[n.ID()], regionOf, rs.Extra)
		}
		// Seed the catalog: object o's origin is provider o%P (pinned), plus
		// k-1 static replicas on the following providers.
		objs := make([]cryptoutil.Hash, sp.objects)
		for o := range objs {
			payload := flashPayload(o, sp.objBytes)
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
		served = func() (origin, total int64) {
			for _, p := range res.provs {
				origin += p.OriginBytes
				total += p.BytesServed
			}
			return origin, total
		}
		nw.Run(nw.Now() + time.Minute) // announces settle
	case shapeP2P:
		nw.Run(nw.Now() + time.Minute)
		// One site per object, each under its own deterministic keypair.
		sites := make([]cryptoutil.Hash, sp.objects)
		for o := range sites {
			owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
			if err != nil {
				return res
			}
			w.author.Publish(owner, 1, map[string][]byte{"blob.bin": flashPayload(o, sp.objBytes)}, cryptoutil.Hash{},
				func(m *webapp.Manifest) { sites[o] = m.Site })
		}
		nw.Run(nw.Now() + time.Minute)
		if slices.Contains(sites, cryptoutil.Hash{}) {
			return res
		}
		// A request Forgets any local copy first — each hit models a fresh
		// user on that device — then Visits, so the blobs always cross the
		// network; between its own requests a client keeps seeding what it
		// last fetched, which is how the flash crowd brings its own
		// capacity.
		get = func(r workload.Request, done func(bool)) {
			p := w.peers[r.Client]
			p.Forget(sites[r.Object])
			p.Visit(sites[r.Object], func(fs map[string][]byte, err error) {
				done(err == nil && len(fs) == 1)
			})
		}
		hot = simnet.NewRPCNode(w.author.Node())
		served = func() (origin, total int64) {
			origin, total = w.author.BlobBytesServed, w.author.BlobBytesServed
			for _, p := range w.peers {
				total += p.BlobBytesServed
			}
			return origin, total
		}
	}

	base := nw.Now()
	sent := nw.Trace().Sent
	if arm.scenario != nil {
		arm.scenario.Build(w.seed, w.ids, sp.horizon).ApplyAt(nw, base)
	}
	var ctl *slaMeter
	if arm.probe {
		hot.Serve("ctl.ping", func(from simnet.NodeID, req any) (any, int) { return req, 16 })
		hot.SetMethodLane("ctl.ping", simnet.LaneCtrl)
		ctl = newSLAMeter(ctlPingTimeout, 1)
		ctl.every(nw, base, ctlPingEvery, sp.horizon, ctlPingEvery, w.monitor.Node().Now, func(done func(bool)) {
			w.monitor.Call(hot.Node().ID(), "ctl.ping", nil, 32, ctlPingTimeout,
				func(resp any, err error) { done(err == nil) })
		})
	}
	if res.dir != nil {
		for i := 0; i <= flashTimeline; i++ {
			at := base + sp.horizon*time.Duration(i)/time.Duration(flashTimeline)
			nw.Schedule(at, func() { res.timeline = append(res.timeline, res.dir.TotalReplicas()) })
		}
	}
	// The arrival cursor: only the first request is queued up front, and
	// each request queues the next as it fires, before it sends anything.
	// Every request is timed on its client's clock.
	meter := newSLAMeter(sp.sla, sp.clients)
	var arrive func(i int)
	arrive = func(i int) {
		r := reqs[i]
		launch := base + r.At
		nw.Schedule(launch, func() {
			if i+1 < len(reqs) {
				arrive(i + 1)
			}
			get(r, meter.launch(r.Client, r.At, launch, w.clients[r.Client].Now))
		})
	}
	if len(reqs) > 0 {
		arrive(0)
	}
	nw.Run(base + sp.horizon + flashGrace)

	score := meter.score()
	res.avail, res.p95, res.outcomes = score.avail, score.p95, score.outcomes
	res.msgPerNode = float64(nw.Trace().Sent-sent) / float64(nw.NumNodes())
	if origin, total := served(); total > 0 {
		res.originShare = float64(origin) / float64(total)
	}
	if res.dir != nil {
		res.timeline = append(res.timeline, res.dir.TotalReplicas())
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

package replic

import (
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/overload"
	"repro/internal/pool"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// ctrlTimeout bounds the provider's control-plane calls (directory
// lookups, adverts, pushes) when the resilience layer is off. It is a
// liveness backstop, not a tuning knob: a lost control message just means
// that maintenance round accomplishes less and the next tick retries.
const ctrlTimeout = 10 * time.Second

// Provider is one replica-holding node. It serves replic.get, tracks
// per-object decayed demand broken down by requester region, and — when
// the layer is enabled — runs a maintenance tick that advertises hot
// objects to their co-holders, pushes new replicas toward the heaviest
// demand region (origin only, so a swarm never races itself), and offers
// cold unpinned replicas back to the directory, which refuses whenever a
// release would breach the floor.
//
// Pinned objects are this layer's anchors: exactly as internal/simnet/fault
// exempts anchor nodes from every scenario's crash set, a pinned replica is
// exempt from demand decay — the provider never offers it for release and
// the directory would refuse anyway (origin registrations are
// unreleasable). TestReplicPinnedNeverReleased pins the exemption.
type Provider struct {
	cfg Config
	rpc simnet.Caller // resil.Wrap'd when the layer is enabled
	dir simnet.NodeID

	demand *Demand
	// store holds each object's get answer, built once at install.
	store  map[cryptoutil.Hash]*getResp
	pinned map[cryptoutil.Hash]bool
	held   []cryptoutil.Hash // sorted; the deterministic iteration order

	// peers are the candidate replica targets (every provider, self
	// included — self is skipped), sorted by id so push-target selection is
	// a function of state alone.
	peers    []simnet.NodeID
	regionOf map[simnet.NodeID]int

	// ctrlSeq stamps this provider's announce/release stream so the
	// directory can order them even when the resilience layer retries a
	// lost message out of order (see announceReq).
	ctrlSeq uint64

	// pushing guards one in-flight push per object so a slow push is not
	// re-issued by the next tick.
	pushing map[cryptoutil.Hash]bool
	// releasing likewise guards the release round-trip.
	releasing map[cryptoutil.Hash]bool

	rates  []float64 // reusable RegionRates buffer
	advBuf []float64 // reusable LocalRegionRates buffer

	m *replicMetrics

	// BytesServed counts payload bytes this provider has served through
	// replic.get — the per-holder ledger X19's origin-byte-share gauge is
	// computed from.
	BytesServed int64
	// OriginBytes is the subset of BytesServed for objects this provider
	// has pinned — i.e. bytes the *origin* carried. Summed across
	// providers and divided by total BytesServed it is exactly the
	// replic.origin.byte_share gauge.
	OriginBytes int64
	// ServedOK counts successful replic.get responses.
	ServedOK int64
}

// NewProvider wires a provider onto node. dir is the directory node,
// regions the geography size, and regionOf maps every node (clients and
// providers) to its home region — the same assignment handed to
// simnet.SetRegionMatrix. The provider starts empty; seed content with
// Put, then call Start once the peer set is known.
func NewProvider(node *simnet.Node, cfg Config, dir simnet.NodeID, regions int, regionOf map[simnet.NodeID]int) *Provider {
	cfg = cfg.withDefaults()
	rpc := simnet.NewRPCNode(node)
	p := &Provider{
		cfg:       cfg,
		rpc:       rpc,
		dir:       dir,
		demand:    NewDemand(cfg.HalfLife, regions),
		store:     map[cryptoutil.Hash]*getResp{},
		pinned:    map[cryptoutil.Hash]bool{},
		regionOf:  regionOf,
		pushing:   map[cryptoutil.Hash]bool{},
		releasing: map[cryptoutil.Hash]bool{},
		rates:     make([]float64, regions),
		advBuf:    make([]float64, regions),
	}
	if cfg.Enabled {
		p.rpc = resil.Wrap(rpc, cfg.Resilience)
		p.m = metricsFor(node.Obs())
	}
	// Overload control guards the blob-serving path; adverts are control
	// plane (they keep demand estimates flowing during saturation — the
	// whole point of the priority lane); pushes stay plain: they are bulk
	// provider-to-provider transfers already gated by the pushing map.
	// Outbound control calls get the lane stamp so a saturated provider's
	// own announces/releases overtake its queued get replies.
	ov := overload.New(rpc, cfg.Overload)
	ov.Protect(methodGet, p.onGet)
	ov.Control(methodAdvert, p.onAdvert)
	rpc.Serve(methodPush, p.onPush)
	ov.MarkControl(methodAnnounce)
	ov.MarkControl(methodRelease)
	ov.MarkControl(methodHolders)
	// After an outage the directory may have handed out stale holder lists
	// or missed this node entirely (it never unregisters holders on crash —
	// replicas survive restarts, like webapp peers' blobs). Re-announcing
	// every held object restores the registration idempotently.
	node.OnUp(func() { p.announceAll() })
	return p
}

// Node returns the provider's simnet node.
func (p *Provider) Node() *simnet.Node { return p.rpc.Node() }

// RPC returns the provider's RPC endpoint. Experiments use it to attach
// probe endpoints (X20's control-plane pinger) on the provider's node.
func (p *Provider) RPC() *simnet.RPCNode { return simnet.NewRPCNode(p.Node()) }

// Holds reports whether the provider currently stores obj.
func (p *Provider) Holds(obj cryptoutil.Hash) bool { _, ok := p.store[obj]; return ok }

// Pinned reports whether obj is pinned on this provider.
//
//reach:experiments' conformance tests check which objects stay held
func (p *Provider) Pinned(obj cryptoutil.Hash) bool { return p.pinned[obj] }

// NumHeld returns how many objects the provider stores.
//
//reach:experiments' conformance tests check which objects stay held
func (p *Provider) NumHeld() int { return len(p.held) }

// HeldObjects returns a copy of the held-object list, sorted by hash
// (in-process inspection for experiments and tests).
//
//reach:experiments' conformance tests check which objects stay held
func (p *Provider) HeldObjects() []cryptoutil.Hash {
	return append([]cryptoutil.Hash(nil), p.held...)
}

// Put installs an object locally and announces the registration to the
// directory. Pinned objects are origins: never released, never decayed.
func (p *Provider) Put(obj cryptoutil.Hash, data []byte, pinned bool) {
	p.install(obj, data)
	if pinned {
		p.pinned[obj] = true
	}
	p.announce(obj)
}

// install stores the bytes, boxed once as the object's get answer, and
// keeps held sorted.
func (p *Provider) install(obj cryptoutil.Hash, data []byte) {
	if _, ok := p.store[obj]; !ok {
		i := sort.Search(len(p.held), func(i int) bool { return !hashLess(p.held[i], obj) })
		p.held = append(p.held, cryptoutil.Hash{})
		copy(p.held[i+1:], p.held[i:])
		p.held[i] = obj
	}
	p.store[obj] = &getResp{Data: data, OK: true}
}

// drop removes a released replica.
func (p *Provider) drop(obj cryptoutil.Hash) {
	if _, ok := p.store[obj]; !ok {
		return
	}
	delete(p.store, obj)
	for i := range p.held {
		if p.held[i] == obj {
			p.held = append(p.held[:i], p.held[i+1:]...)
			break
		}
	}
}

func hashLess(a, b cryptoutil.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (p *Provider) announce(obj cryptoutil.Hash) {
	p.ctrlSeq++
	req := announceReq{Object: obj, Holder: p.Node().ID(), Origin: p.pinned[obj], Seq: p.ctrlSeq}
	p.rpc.Call(p.dir, methodAnnounce, req, 72, ctrlTimeout, func(any, error) {})
}

func (p *Provider) announceAll() {
	for _, obj := range p.held {
		p.announce(obj)
	}
}

// SetPeers installs the candidate replica-target set (sorted copy taken).
func (p *Provider) SetPeers(peers []simnet.NodeID) {
	p.peers = append([]simnet.NodeID(nil), peers...)
	sort.Slice(p.peers, func(i, j int) bool { return p.peers[i] < p.peers[j] })
}

// Start begins the maintenance tick when the layer is enabled. Ticks are
// staggered by node id so the providers' maintenance traffic does not
// arrive at the directory in one synchronized burst.
func (p *Provider) Start() {
	if !p.cfg.Enabled {
		return
	}
	stagger := time.Duration(int64(p.Node().ID())%16) * p.cfg.TickEvery / 16
	p.Node().AfterCall(p.cfg.TickEvery+stagger, tickEvent, p)
}

// tickEvent is the maintenance timer's callback; arg is the *Provider, so
// arming the next round allocates nothing.
func tickEvent(arg any) { arg.(*Provider).tick() }

// tick is one maintenance round. While the node is down the round is a
// pure reschedule: timers keep firing across outages, but a crashed node
// must neither send nor mutate protocol state.
func (p *Provider) tick() {
	node := p.Node()
	node.AfterCall(p.cfg.TickEvery, tickEvent, p)
	if !node.Up() {
		return
	}
	now := node.Now()
	p.demand.Tick(now)
	for _, obj := range p.held {
		p.tickObject(obj, now)
	}
}

// tickObject makes this round's advert/push/release decisions for one
// held object.
func (p *Provider) tickObject(obj cryptoutil.Hash, now time.Duration) {
	local := p.demand.LocalRate(obj, now)
	swarm := p.demand.SwarmRate(obj, now)
	switch {
	case local >= p.cfg.HotRate:
		// Hot here: share the view with co-holders, and (origin only)
		// consider growing the replica set.
		p.ctrl(methodHolders, obj, obj, 40, ctrlAdvert)
	case p.pinned[obj] && swarm >= p.cfg.HotRate:
		// Origin of a swarm hot elsewhere: demand may be landing on the
		// replicas, but sizing the set is still the origin's job.
		p.ctrl(methodHolders, obj, obj, 40, ctrlPush)
	case !p.pinned[obj] && swarm < p.cfg.ColdRate:
		p.maybeRelease(obj)
	}
}

// ctrlStep is what a provider does when one of its control calls returns.
type ctrlStep uint8

const (
	// ctrlAdvert: with obj's holder list, advertise to the co-holders and,
	// on the origin, consider a push.
	ctrlAdvert ctrlStep = iota
	// ctrlPush: with obj's holder list, consider a push.
	ctrlPush
	// ctrlRelease: the directory's verdict on a release offer.
	ctrlRelease
)

// ctrlCall is the Completion of one provider control call: a holders
// lookup (self is included where registered) or a release offer. A call
// completes exactly once, so the record goes back to ctrlPool as soon as
// its fields are read.
type ctrlCall struct {
	p    *Provider
	obj  cryptoutil.Hash
	step ctrlStep
	pool.Mark
}

var ctrlPool = pool.New[ctrlCall]("replic.ctrl", nil)

// ctrl issues one control call to the directory, completing with step.
func (p *Provider) ctrl(method string, obj cryptoutil.Hash, req any, reqSize int, step ctrlStep) {
	c := ctrlPool.Get()
	c.p, c.obj, c.step = p, obj, step
	p.rpc.CallTo(p.dir, method, req, reqSize, ctrlTimeout, c)
}

// CallDone acts on the call's answer.
func (c *ctrlCall) CallDone(resp any, _ time.Duration, err error) {
	p, obj, step := c.p, c.obj, c.step
	ctrlPool.Put(c)
	if step == ctrlRelease {
		delete(p.releasing, obj)
		if err != nil || resp != true || !p.Node().Up() {
			return
		}
		p.drop(obj)
		p.m.decayed.Inc()
		return
	}
	hr, _ := resp.(*holdersResp) // nil when the call failed
	if hr == nil {
		return
	}
	if p.Node().Up() {
		if step == ctrlAdvert {
			p.advertise(obj, hr.Holders())
		}
		if step == ctrlPush || p.pinned[obj] {
			p.maybePush(obj, hr.Holders())
		}
	}
	holdersPool.Put(hr)
}

// advertise sends this provider's local demand snapshot for obj to every
// co-holder. Adverts are replaceable snapshots (see Demand.Advert), so
// re-advertising each tick never double counts.
func (p *Provider) advertise(obj cryptoutil.Hash, holders []simnet.NodeID) {
	now := p.Node().Now()
	p.demand.LocalRegionRates(obj, now, p.advBuf)
	self := p.Node().ID()
	// One immutable advert, boxed on first use, goes to every co-holder:
	// the receiver copies what it keeps (Demand.Advert).
	var req any
	size := 48 + 8*len(p.advBuf)
	for _, h := range holders {
		if h == self {
			continue
		}
		if req == nil {
			req = advertReq{
				Object: obj,
				Rate:   p.demand.LocalRate(obj, now),
				Region: append([]float64(nil), p.advBuf...),
			}
		}
		p.rpc.Call(h, methodAdvert, req, size, ctrlTimeout, func(any, error) {})
		p.m.advertSent.Inc()
	}
}

// maybePush grows obj's replica set by one when swarm demand says the
// current holder count is under target: the new replica goes to the
// lowest-id non-holding provider in the heaviest-demand region (falling
// back to any region in descending demand order), one push per object at
// a time.
func (p *Provider) maybePush(obj cryptoutil.Hash, holders []simnet.NodeID) {
	if p.pushing[obj] || len(holders) >= p.cfg.Cap {
		return
	}
	now := p.Node().Now()
	target := p.cfg.TargetReplicas(p.demand.SwarmRate(obj, now))
	if len(holders) >= target {
		return
	}
	p.demand.RegionRates(obj, now, p.rates)
	to, ok := p.pickTarget(holders)
	if !ok {
		return
	}
	data := p.store[obj].Data // only an origin pushes, and it never drops its object
	p.pushing[obj] = true
	p.rpc.Call(to, methodPush, pushReq{Object: obj, Data: data}, len(data)+40, ctrlTimeout, func(resp any, err error) {
		delete(p.pushing, obj)
		if err != nil || resp != true || !p.Node().Up() {
			return
		}
		p.m.created.Inc()
		p.m.pushBytes.Add(int64(len(data)))
	})
}

// pickTarget chooses the push destination: regions ranked by current
// demand (descending, region index breaking ties), and within the first
// region that has a non-holding provider, the lowest node id. Pure
// function of the inputs — no randomness, no map iteration.
func (p *Provider) pickTarget(holders []simnet.NodeID) (simnet.NodeID, bool) {
	order := regionOrder(p.rates)
	self := p.Node().ID()
	for _, g := range order {
		for _, cand := range p.peers {
			if cand == self || p.regionOf[cand] != g {
				continue
			}
			if containsID(holders, cand) {
				continue
			}
			return cand, true
		}
	}
	return 0, false
}

// regionOrder returns region indices sorted by demand descending, index
// ascending on ties. Small fixed-size sort; allocation here is fine (the
// push path is cold).
func regionOrder(rates []float64) []int {
	order := make([]int, len(rates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := rates[order[a]], rates[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	return order
}

func containsID(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// maybeRelease offers a cold unpinned replica back to the directory; the
// replica is dropped only on explicit approval, so the floor holds even
// when several holders go cold in the same tick — the directory serializes
// the decisions.
func (p *Provider) maybeRelease(obj cryptoutil.Hash) {
	if p.releasing[obj] {
		return
	}
	p.releasing[obj] = true
	p.ctrlSeq++
	// The offer stays boxed per call: it is a request, and a retried
	// attempt's copy may reach the directory long after this call ended.
	p.ctrl(methodRelease, obj, releaseReq{Object: obj, Holder: p.Node().ID(), Seq: p.ctrlSeq}, 72, ctrlRelease)
}

// onGet serves a replica fetch and feeds the demand tracker with the
// requester's home region.
func (p *Provider) onGet(from simnet.NodeID, req any) (any, int) {
	obj, ok := req.(cryptoutil.Hash)
	if !ok {
		return notFound, 16
	}
	r, ok := p.store[obj]
	if !ok {
		return notFound, 16
	}
	if p.cfg.Enabled {
		p.demand.Observe(obj, p.regionOf[from], p.Node().Now())
	}
	n := len(r.Data)
	p.BytesServed += int64(n)
	if p.pinned[obj] {
		p.OriginBytes += int64(n)
	}
	p.ServedOK++
	return r, n + 16
}

// onAdvert folds a co-holder's demand snapshot into the local swarm view.
func (p *Provider) onAdvert(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(advertReq)
	if !ok || !p.cfg.Enabled {
		return false, 8
	}
	// Only fold adverts for objects actually held: a released replica must
	// not keep accumulating swarm state.
	if !p.Holds(r.Object) {
		return false, 8
	}
	p.demand.Advert(r.Object, from, r.Rate, r.Region, p.Node().Now())
	return true, 8
}

// onPush installs a pushed replica and registers it with the directory.
func (p *Provider) onPush(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(pushReq)
	if !ok || !p.cfg.Enabled {
		return false, 8
	}
	p.install(r.Object, r.Data)
	p.announce(r.Object)
	return true, 8
}

package dht

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// Config tunes a DHT peer. The zero value is replaced by defaults matching
// the Kademlia paper (k=20, α=3).
type Config struct {
	K              int           // bucket size and lookup result width
	Alpha          int           // lookup parallelism
	RequestTimeout time.Duration // per-RPC timeout
	// RepublishInterval re-stores locally published values; 0 disables.
	RepublishInterval time.Duration
	// Resilience tunes the adaptive retry/hedging layer on every client
	// RPC (lookup queries, stores, refresh pings). The zero value keeps
	// the historical fixed-RequestTimeout behaviour.
	Resilience resil.Config
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 20
	}
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	return c
}

// RPC method names.
const (
	methodPing      = "dht.ping"
	methodFindNode  = "dht.find_node"
	methodFindValue = "dht.find_value"
	methodStore     = "dht.store"
)

type findNodeReq struct {
	From   Contact
	Target Key
}

// findResp is the reply to find_node and find_value. Replies are pooled:
// the serving peer takes one and fills it, and the lookup that receives it
// releases it once merged. A reply the RPC layer drops as late — after a
// timeout, a cancelled hedge or a duplicate delivery — is left to the GC.
type findResp struct {
	Value    []byte // find_value hit; nil otherwise
	Found    bool
	Contacts []Contact
}

var replyPool = sync.Pool{New: func() any { return new(findResp) }}

// replyHook, when non-nil, observes every reply taken from the pool
// (taken) and every reply released to it (!taken). Tests use it to pin
// the exactly-once release; it is nil in production.
var replyHook func(r *findResp, taken bool)

func takeReply() *findResp {
	r := replyPool.Get().(*findResp)
	if replyHook != nil {
		replyHook(r, true)
	}
	return r
}

// release returns r to the pool; a nil reply is a no-op.
func (r *findResp) release() {
	if r == nil {
		return
	}
	if replyHook != nil {
		replyHook(r, false)
	}
	r.Value, r.Found, r.Contacts = nil, false, r.Contacts[:0]
	replyPool.Put(r)
}

type storeReq struct {
	From  Contact
	Key   Key
	Value []byte
}

// Peer is one DHT participant bound to a simnet node.
type Peer struct {
	cfg Config
	rpc simnet.Caller // resil.Wrap'd: client-path RPCs go through the resilience layer
	id  Key
	rt  *routingTable
	// ping is this peer's Contact, boxed once: the payload of every
	// liveness ping it sends.
	ping  any
	store map[Key][]byte
	// published tracks keys this peer originated, for republishing.
	published map[Key][]byte

	// Observability: network-wide DHT metrics. The bundle is resolved once
	// per registry via Memo and shared by every peer on the network, so
	// constructing a 10k-peer population does 4 map lookups, not 40k (see
	// DESIGN.md metric naming conventions).
	m *dhtMetrics
}

// dhtMetrics is the package's network-scoped counter bundle.
type dhtMetrics struct {
	lookups *obs.Counter
	hops    *obs.Counter
	served  *obs.Counter
	stores  *obs.Counter
}

func metricsFor(r *obs.Registry) *dhtMetrics {
	return r.Memo("dht", func() any {
		return &dhtMetrics{
			lookups: r.Counter("dht.lookup.started"),
			hops:    r.Counter("dht.lookup.hops"),
			served:  r.Counter("dht.value.served"),
			stores:  r.Counter("dht.store.sent"),
		}
	}).(*dhtMetrics)
}

// derivedID is the DHT ID of a peer created without one: a hash of its
// node ID. Node IDs below 2^16 hash their two low bytes, the preimage every
// world of up to 65,536 nodes has always used; larger ones hash all eight
// bytes, so no two nodes of any population share an ID.
func derivedID(id simnet.NodeID) Key {
	if id < 1<<16 {
		return cryptoutil.SumHash([]byte{byte(id), byte(id >> 8), 0xD7})
	}
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	b[8] = 0xD7
	return cryptoutil.SumHash(b[:])
}

// NewPeer creates a DHT peer on the given simnet node. The peer's DHT ID is
// derived from the node ID unless a nonzero id is supplied.
func NewPeer(node *simnet.Node, id Key, cfg Config) *Peer {
	if id.IsZero() {
		id = derivedID(node.ID())
	}
	cfg = cfg.withDefaults()
	rpc := simnet.NewRPCNode(node)
	p := &Peer{
		cfg:       cfg,
		rpc:       resil.Wrap(rpc, cfg.Resilience),
		id:        id,
		store:     map[Key][]byte{},
		published: map[Key][]byte{},
		m:         metricsFor(node.Obs()),
	}
	p.rt = newRoutingTable(id, p.cfg.K)
	p.ping = p.Contact()
	rpc.Serve(methodPing, p.onPing)
	rpc.Serve(methodFindNode, p.onFindNode)
	rpc.Serve(methodFindValue, p.onFindValue)
	rpc.Serve(methodStore, p.onStore)
	if p.cfg.RepublishInterval > 0 {
		p.scheduleRepublish()
	}
	return p
}

// Contact returns this peer's own contact record.
func (p *Peer) Contact() Contact { return Contact{ID: p.id, Addr: p.rpc.Node().ID()} }

// Node returns the underlying simnet node.
func (p *Peer) Node() *simnet.Node { return p.rpc.Node() }

// TableSize returns the number of contacts in the routing table.
func (p *Peer) TableSize() int { return p.rt.size() }

// observe records a contact, running the ping-before-evict protocol when a
// bucket is full.
func (p *Peer) observe(c Contact) {
	if c.ID == p.id {
		return
	}
	old, full := p.rt.observe(c)
	if !full {
		return
	}
	pe := pingPool.Get().(*pingEvict)
	pe.p, pe.old, pe.new = p, old, c
	p.rpc.CallTo(old.Addr, methodPing, p.ping, 40, p.cfg.RequestTimeout, pe)
}

// pingEvict is the Completion of one ping-before-evict: the bucket's
// least-recently-seen occupant old was pinged because new wants its slot.
// Records come from a pool and go back to it as the ping completes, so a
// ping allocates nothing in steady state.
type pingEvict struct {
	p        *Peer
	old, new Contact
}

var pingPool = sync.Pool{New: func() any { return new(pingEvict) }}

func (pe *pingEvict) CallDone(_ any, _ time.Duration, err error) {
	p, old, c := pe.p, pe.old, pe.new
	*pe = pingEvict{}
	pingPool.Put(pe)
	if err != nil {
		p.rt.evict(old, c) // stale occupant: newcomer takes the slot
	} else {
		p.rt.refresh(old.ID) // occupant alive: newcomer is dropped
	}
}

func (p *Peer) onPing(from simnet.NodeID, req any) (any, int) {
	if c, ok := req.(Contact); ok {
		p.observe(c)
	}
	return true, 8
}

// closestReply returns a pooled reply holding the K contacts nearest target.
func (p *Peer) closestReply(target Key) *findResp {
	r := takeReply()
	r.Contacts = p.rt.appendClosest(r.Contacts, target, p.cfg.K)
	return r
}

func (p *Peer) onFindNode(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(*findNodeReq)
	if !ok {
		return nil, 8
	}
	p.observe(r.From)
	resp := p.closestReply(r.Target)
	return resp, 8 + len(resp.Contacts)*40
}

func (p *Peer) onFindValue(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(*findNodeReq)
	if !ok {
		return nil, 8
	}
	p.observe(r.From)
	if v, ok := p.store[r.Target]; ok {
		p.m.served.Inc()
		resp := takeReply()
		resp.Value, resp.Found = v, true
		return resp, 8 + len(v)
	}
	resp := p.closestReply(r.Target)
	return resp, 8 + len(resp.Contacts)*40
}

func (p *Peer) onStore(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(storeReq)
	if !ok {
		return false, 8
	}
	p.observe(r.From)
	p.store[r.Key] = r.Value
	return true, 8
}

// Bootstrap joins the network through a seed contact: it inserts the seed
// and runs a self-lookup to populate the routing table, invoking done when
// finished.
func (p *Peer) Bootstrap(seed Contact, done func()) {
	p.observe(seed)
	p.lookup(p.id, false, func(_ []Contact, _ []byte, _ bool) {
		if done != nil {
			done()
		}
	})
}

// Put stores value under key on the K closest peers. done (optional)
// receives the number of nodes that acknowledged the store.
func (p *Peer) Put(key Key, value []byte, done func(stored int)) {
	p.published[key] = value
	p.putOnce(key, value, done)
}

func (p *Peer) putOnce(key Key, value []byte, done func(stored int)) {
	p.lookup(key, false, func(closest []Contact, _ []byte, _ bool) {
		// Store locally if we are among the closest (or the network is tiny).
		acked := 0
		pending := len(closest)
		p.store[key] = value
		if pending == 0 {
			if done != nil {
				done(0)
			}
			return
		}
		for _, c := range closest {
			req := storeReq{From: p.Contact(), Key: key, Value: value}
			p.m.stores.Inc()
			p.rpc.Call(c.Addr, methodStore, req, 48+len(value), p.cfg.RequestTimeout, func(resp any, err error) {
				pending--
				if err == nil {
					if okResp, ok := resp.(bool); ok && okResp {
						acked++
					}
				}
				if pending == 0 && done != nil {
					done(acked)
				}
			})
		}
	})
}

// Get retrieves the value for key, first locally then via an iterative
// FIND_VALUE lookup.
func (p *Peer) Get(key Key, done func(value []byte, ok bool)) {
	if v, ok := p.store[key]; ok {
		done(v, true)
		return
	}
	p.lookup(key, true, func(_ []Contact, value []byte, found bool) {
		done(value, found)
	})
}

func (p *Peer) scheduleRepublish() {
	// Node-local timer: a skewed device clock republishes early or late.
	p.Node().After(p.cfg.RepublishInterval, func() {
		if p.Node().Up() {
			keys := make([]Key, 0, len(p.published))
			for key := range p.published { //determinism:ok sorted below
				keys = append(keys, key)
			}
			sort.Slice(keys, func(i, j int) bool {
				return DistanceLess(Key{}, keys[i], keys[j])
			})
			for _, key := range keys {
				p.putOnce(key, p.published[key], nil)
			}
		}
		p.scheduleRepublish()
	})
}

package simnet

import (
	"math/rand"
	"time"

	"repro/internal/obs"
)

// Node is one simulated host. All methods must be called from within the
// simulation goroutine (i.e. from handlers or scheduled functions, or
// before Run starts).
type Node struct {
	id      NodeID
	nw      *Network
	profile LinkProfile
	rng     *rand.Rand
	up      bool
	// clockRate skews the node's local timers: rate r means the node's
	// clock runs r× virtual time, so a local timer of d fires after d/r of
	// network time. Zero means 1 (no skew).
	clockRate float64

	uplinkFree   time.Duration
	downlinkFree time.Duration
	// uplinkCtrlFree is the control lane's serialization cursor, consulted
	// only when prioUplink is set (SetPriorityUplink).
	uplinkCtrlFree time.Duration
	prioUplink     bool
	// qDeparts/qHead approximate the uplink queue occupancy when the
	// network's queue metrics are on: departure times of recent sends,
	// drained from the front as virtual time passes them.
	qDeparts []time.Duration
	qHead    int

	// handlers holds one entry per registered message kind, in
	// registration order. A node registers one to four kinds, so a scan
	// beats a map probe on every delivery.
	handlers []kindHandler
	// rpc is the node's shared request/response layer, created lazily by
	// NewRPCNode.
	rpc *RPCNode

	// onUp/onDown observers, used by protocol layers to re-join or
	// re-announce after a restart.
	onUp   []func()
	onDown []func()

	crashes  int
	downtime time.Duration
	downAt   time.Duration

	// sh is the shard that executes this node's events and holds its
	// accounting: the Network's own in single-heap mode. oseq is the node's
	// private event counter, the last component of the sharded ordering key
	// (at, id+1, oseq). srng serves the substrate draws (loss, jitter,
	// faults) for messages the node sends; see AddNodeWithProfile.
	sh   *shard
	oseq uint64
	srng *rand.Rand
}

// nextOseq returns the node's next event sequence number.
func (n *Node) nextOseq() uint64 {
	n.oseq++
	return n.oseq
}

// key draws the ordering key for an event this node schedules — a timer of
// its own or a message it sends. On a single heap that is the queue's
// global schedule order; on shards it is the node's own (origin, counter)
// pair, so the order of the events any node observes is a function of the
// seed alone, never of which shard or worker produced them.
func (n *Node) key() (origin, oseq uint64) {
	if !n.nw.sharded {
		return 0, n.sh.draw()
	}
	return uint64(n.id) + 1, n.nextOseq()
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Network returns the network this node belongs to.
func (n *Node) Network() *Network { return n.nw }

// Rand returns the node's private deterministic RNG stream, seeded from
// (network seed, node id) via SplitMix64. Protocol code on a node must
// draw from this stream — never from Network.Rand — so the node's
// stochastic behaviour is a function of the seed and its own actions, not
// of how unrelated nodes' events interleave.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Obs returns the observability registry protocol layers on this node
// should annotate: its shard's. On the single-heap engine that is the
// network-wide registry; on the sharded engine it is private to the shard
// (safe to update from parallel windows), and exports merge all shard
// registries order-independently — counters sum, so network-wide totals
// come out identical either way.
func (n *Node) Obs() *obs.Registry { return n.sh.obs }

// Now returns the node's current virtual time: its shard's clock (shards
// advance independently inside a window). Protocol code on a node should
// prefer this over Network.Now.
func (n *Node) Now() time.Duration { return n.sh.now }

// schedule queues an event for this node at absolute time at on the node's
// shard.
func (n *Node) schedule(at time.Duration, fn func(), h EventFunc, arg any) *event {
	origin, oseq := n.key()
	return n.sh.schedule(at, origin, oseq, fn, h, arg)
}

// Profile returns the node's link profile.
func (n *Node) Profile() LinkProfile { return n.profile }

// SetProfile replaces the node's link profile (takes effect for messages
// sent or received after the call).
func (n *Node) SetProfile(p LinkProfile) {
	n.profile = p
	n.nw.noteLatency(p.Latency)
}

// Up reports whether the node is currently alive.
func (n *Node) Up() bool { return n.up }

// SetClockSkew sets the node's clock-rate multiplier: rate 1 is a perfect
// clock, 1.1 runs 10% fast (local timers fire early in network time), 0.9
// runs 10% slow. Rates <= 0 reset to 1. Protocol layers that schedule
// periodic work through Node.After / Node.AfterCall inherit the skew;
// fault plans use this to model drifting device clocks.
func (n *Node) SetClockSkew(rate float64) {
	if rate <= 0 {
		rate = 1
	}
	n.clockRate = rate
}

// skewed converts a duration on the node's local clock into network time.
func (n *Node) skewed(d time.Duration) time.Duration {
	if r := n.clockRate; r != 0 && r != 1 {
		return time.Duration(float64(d) / r)
	}
	return d
}

// After runs fn after d of the node's *local* clock time — network time
// d/rate under clock skew. Protocol timers (republish intervals, gossip
// rounds, audit epochs, RPC timeouts) must be scheduled through the node,
// not the network, so fault plans can skew them.
func (n *Node) After(d time.Duration, fn func()) { n.schedule(n.Now()+n.skewed(d), fn, nil, nil) }

// AfterCall is the closure-free variant of After: h runs with arg after d
// of the node's local clock time. Per-message and per-call paths (RPC
// timeouts, periodic protocol rounds) should prefer this over After so
// steady-state traffic does not allocate a capture per event.
func (n *Node) AfterCall(d time.Duration, h EventFunc, arg any) Timer {
	e := n.schedule(n.Now()+n.skewed(d), nil, h, arg)
	return Timer{e: e, gen: e.gen}
}

// kindHandler is one entry of a node's handler table.
type kindHandler struct {
	kind string
	h    Handler
}

// Handle registers a handler for messages of the given kind, replacing any
// existing one.
func (n *Node) Handle(kind string, h Handler) {
	if e := n.lookup(kind); e != nil {
		e.h = h
		return
	}
	n.handlers = append(n.handlers, kindHandler{kind: kind, h: h})
}

// lookup returns kind's entry in the handler table, or nil.
func (n *Node) lookup(kind string) *kindHandler {
	for i := range n.handlers {
		if n.handlers[i].kind == kind {
			return &n.handlers[i]
		}
	}
	return nil
}

// Send transmits a message from this node on the bulk lane.
func (n *Node) Send(to NodeID, kind string, payload any, size int) bool {
	return n.nw.Send(Message{From: n.id, To: to, Kind: kind, Payload: payload, Size: size})
}

// SendLane transmits a message on an explicit uplink lane. Lanes only
// change scheduling on nodes that enabled the priority uplink.
func (n *Node) SendLane(to NodeID, kind string, payload any, size int, lane Lane) bool {
	return n.nw.Send(Message{From: n.id, To: to, Kind: kind, Payload: payload, Size: size, Lane: lane})
}

// SetPriorityUplink switches the node's uplink between plain FIFO
// serialization (the historical model, default) and a two-lane strict
// priority discipline: LaneCtrl frames serialize among themselves from the
// control cursor and push any queued bulk backlog back by their own
// serialization time, so control traffic sees only other control traffic
// ahead of it — the approximation of a priority queue expressible with
// per-lane cursors. With the flag off the ctrl cursor is never consulted
// and the send path is byte-identical to history.
func (n *Node) SetPriorityUplink(on bool) { n.prioUplink = on }

// downlink charges a size-byte message reaching the node's link at arrive
// to the downlink cursor and returns when its last byte lands.
func (n *Node) downlink(arrive time.Duration, size int) time.Duration {
	if n.profile.DownlinkBps <= 0 {
		return arrive
	}
	if n.downlinkFree > arrive {
		arrive = n.downlinkFree
	}
	arrive += secondsToDuration(float64(size*8) / n.profile.DownlinkBps)
	n.downlinkFree = arrive
	return arrive
}

// serialize charges ser of uplink serialization to the node at virtual
// time now and returns the message's departure time. Bulk frames wait for
// both cursors (a control frame in flight occupies the physical link);
// control frames wait only for earlier control frames.
func (n *Node) serialize(lane Lane, now, ser time.Duration) time.Duration {
	if n.prioUplink && lane == LaneCtrl {
		start := now
		if n.uplinkCtrlFree > start {
			start = n.uplinkCtrlFree
		}
		depart := start + ser
		n.uplinkCtrlFree = depart
		// Control preempts: queued bulk bytes lose the link for ser.
		if n.uplinkFree > now {
			n.uplinkFree += ser
		} else if n.uplinkFree < depart {
			n.uplinkFree = depart
		}
		return depart
	}
	start := now
	if n.uplinkFree > start {
		start = n.uplinkFree
	}
	if n.prioUplink && n.uplinkCtrlFree > start {
		start = n.uplinkCtrlFree
	}
	depart := start + ser
	n.uplinkFree = depart
	return depart
}

// UplinkBacklog reports how far the node's bulk uplink cursor is already
// committed past the node's current virtual time: the serialization wait
// a bulk frame sent right now would see before its first byte leaves.
// Zero on an idle (or unbounded-bandwidth) link. Server-side overload
// control reads this as its ground-truth congestion signal — a reply
// "in service" until the backlog it joined has drained is a reply whose
// service time includes the queueing the link is actually doing.
func (n *Node) UplinkBacklog() time.Duration {
	if b := n.uplinkFree - n.Now(); b > 0 {
		return b
	}
	return 0
}

// noteQueue records one uplink queue observation (depth including this
// message, and this message's sojourn until departure). Only called when
// Network.EnableQueueMetrics is set, so default runs never touch it.
func (n *Node) noteQueue(now, depart time.Duration) {
	for n.qHead < len(n.qDeparts) && n.qDeparts[n.qHead] <= now {
		n.qHead++
	}
	if n.qHead == len(n.qDeparts) {
		n.qDeparts, n.qHead = n.qDeparts[:0], 0
	} else if n.qHead > 1024 {
		n.qDeparts = append(n.qDeparts[:0], n.qDeparts[n.qHead:]...)
		n.qHead = 0
	}
	n.qDeparts = append(n.qDeparts, depart)
	depth := float64(len(n.qDeparts) - n.qHead)
	m := queueMetricsFor(n.Obs())
	m.depth.Observe(depth)
	m.sojourn.Observe((depart - now).Seconds())
}

// netQueueMetrics is the per-registry bundle behind EnableQueueMetrics,
// resolved once per registry via Memo (shard registries each get their
// own; histogram merges keep exports layout-stable).
type netQueueMetrics struct {
	depth, sojourn *obs.Histogram
}

func queueMetricsFor(r *obs.Registry) *netQueueMetrics {
	return r.Memo("netqueue", func() any {
		return &netQueueMetrics{
			depth:   r.Histogram("net.queue.depth"),
			sojourn: r.Histogram("net.queue.sojourn_s"),
		}
	}).(*netQueueMetrics)
}

// Crash takes the node down: in-flight messages to it will be dropped at
// delivery time and new sends to or from it fail until Restart.
func (n *Node) Crash() {
	if !n.up {
		return
	}
	n.up = false
	n.crashes++
	n.downAt = n.Now()
	for _, f := range n.onDown {
		f()
	}
}

// Restart brings a crashed node back up and fires the registered OnUp
// observers (protocol layers use these to rejoin rings, re-announce
// content, etc.).
func (n *Node) Restart() {
	if n.up {
		return
	}
	n.up = true
	n.downtime += n.Now() - n.downAt
	for _, f := range n.onUp {
		f()
	}
}

// OnUp registers an observer called every time the node restarts.
func (n *Node) OnUp(f func()) { n.onUp = append(n.onUp, f) }

// OnDown registers an observer called every time the node crashes.
func (n *Node) OnDown(f func()) { n.onDown = append(n.onDown, f) }

// Crashes returns how many times the node has crashed.
//
//reach:experiments' conformance tests read it to check fault plans spare anchors
func (n *Node) Crashes() int { return n.crashes }

// Downtime returns the cumulative time the node has spent down (not
// counting an in-progress outage).
//
//reach:experiments' conformance tests read it to check fault plans spare anchors
func (n *Node) Downtime() time.Duration { return n.downtime }

// Churn drives a node through an alternating up/down renewal process with
// exponentially distributed time-to-failure and time-to-repair. It models
// the paper's §5.2 point that user-device infrastructure has "intermittency
// [and] higher failure rates" than datacenters. Draws come from the node's
// own RNG stream, so one node's outage schedule is independent of every
// other node's.
type Churn struct {
	// MTTF is the mean time between a restart and the next crash.
	MTTF time.Duration
	// MTTR is the mean outage length.
	MTTR time.Duration
}

// Apply starts the churn process on node n. The first failure is scheduled
// an exponential draw from now. Passing a zero MTTF disables churn.
func (c Churn) Apply(n *Node) {
	if c.MTTF <= 0 {
		return
	}
	var scheduleFail func()
	var scheduleRepair func()
	scheduleFail = func() {
		d := expDraw(n, c.MTTF)
		// Scheduled through the node, not the network, so the renewal
		// process runs on the node's shard in sharded mode (the draws
		// already come from the node's own stream either way).
		n.schedule(n.Now()+d, func() {
			if !n.up {
				return // already down (e.g. manual crash); wait for restart path
			}
			n.Crash()
			scheduleRepair()
		}, nil, nil)
	}
	scheduleRepair = func() {
		d := expDraw(n, c.MTTR)
		n.schedule(n.Now()+d, func() {
			if n.up {
				return
			}
			n.Restart()
			scheduleFail()
		}, nil, nil)
	}
	scheduleFail()
}

func expDraw(n *Node, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := time.Duration(n.rng.ExpFloat64() * float64(mean))
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// Package simnet is a deterministic discrete-event network simulator. It is
// the substrate every distributed system in this repository runs on: the
// blockchain miners, the Kademlia DHT, the federated and P2P group
// communication models, the storage network, and the hostless web layer.
//
// The package is split into an engine and a substrate, and there is one of
// each:
//
//   - The engine (scheduler.go) is one event queue type: an indexed heap
//     ordered by (at, origin, oseq), with cancellable Timer
//     handles and a pooled, closure-free hot path (events carry an
//     EventFunc handler plus argument, recycled through a sync.Pool, so
//     steady-state message traffic allocates nothing). Protocols schedule
//     through their own Node (Now, After, AfterCall).
//   - The substrate (this file, node.go, rpc.go) models the network the
//     paper argues about — §4 "quality vs quantity": per-link propagation
//     latency with seeded jitter, per-node uplink/downlink bandwidth with
//     serialization queueing, message loss, node crash/restart and
//     exponential churn, and partitions. It is one message path (Send,
//     deliverEvent) and one accounting home (ledger) per queue.
//
// A network runs in one of two modes that share all of that code. The
// default keeps every node on the Network's own queue and keys every event
// (at, 0, seq) — plain schedule order on a single heap. NetworkConfig{Shards,
// Workers} spreads nodes over per-shard queues run by parallel workers and
// keys each event by the node that scheduled it, which makes results
// byte-identical at every shard and worker count. shard.go holds what only
// the sharded mode needs (outboxes, the arrival hop, the window runner) and
// the short table of where the modes differ.
//
// Determinism and randomness. Given the same seed and workload a simulation
// is reproducible bit for bit. Randomness is split into per-node streams:
// node i draws from a SplitMix64 stream seeded with
// mix64(mix64(seed) + (i+1)·golden64) (see splitmix.go for the exact scheme
// and why the outer whitening step matters), so one node's stochastic
// behaviour does not depend on how other nodes' events interleave. The
// network-level stream (Network.Rand) serves harness-level workload
// generation and, on a single heap, the substrate draws — loss, jitter.
//
// Scale-out. Independent trials parallelize across cores with Trials
// (trials.go): each trial owns its whole Network, so parallelism is
// trial-level and per-seed results are identical at any worker count.
// Traffic is counted once, in each event queue's ledger, and read as
// network-wide totals (Network.Trace), with per-kind delivery-latency
// histograms available via Network.LatencyHistogram.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// NodeID identifies a node within one Network.
type NodeID int

// Message is a simulated datagram. Payload is an arbitrary value passed by
// reference (the simulator never copies or serializes it); Size is the
// simulated wire size in bytes and is what bandwidth modelling charges for.
type Message struct {
	From, To NodeID
	Kind     string
	Payload  any
	Size     int
	// Lane selects the sender's uplink serialization class. The zero value
	// is the bulk lane, and lanes only matter on nodes that opted into the
	// priority uplink (Node.SetPriorityUplink), so historical traffic is
	// untouched.
	Lane Lane
}

// Lane identifies an uplink serialization class (see Node.SetPriorityUplink).
type Lane uint8

const (
	// LaneBulk is the default best-effort lane; all traffic historically
	// travelled here.
	LaneBulk Lane = iota
	// LaneCtrl is the strict-priority control lane: on a priority-enabled
	// uplink, control frames serialize ahead of any queued bulk backlog, so
	// a saturated server keeps its control plane (adverts, directory ops,
	// pings) responsive. On a default uplink LaneCtrl behaves exactly like
	// LaneBulk.
	LaneCtrl
)

// Handler processes a delivered message on the receiving node.
type Handler func(msg Message)

// LinkProfile describes the network attachment of a node (or the default
// for the whole network). The zero value is replaced by DatacenterProfile.
type LinkProfile struct {
	// Latency is the one-way propagation delay added to every message the
	// node sends. The effective delay between two nodes is the sum of both
	// endpoints' latencies (a crude but monotone RTT model).
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each message.
	Jitter time.Duration
	// UplinkBps and DownlinkBps are the serialization rates in bits/sec.
	// Zero means infinite (no serialization delay).
	UplinkBps   float64
	DownlinkBps float64
	// Loss is the independent drop probability per message in [0, 1).
	Loss float64
}

// DatacenterProfile approximates an intra/inter-datacenter attachment: low
// latency, 10 Gbps symmetric, lossless.
func DatacenterProfile() LinkProfile {
	return LinkProfile{Latency: 1 * time.Millisecond, Jitter: 500 * time.Microsecond, UplinkBps: 10e9, DownlinkBps: 10e9}
}

// HomeBroadbandProfile approximates the paper's §4 "slow broadband"
// user-device attachment: 25 ms latency, 20 Mbps down / 1 Mbps up, 0.5 %
// loss.
func HomeBroadbandProfile() LinkProfile {
	return LinkProfile{Latency: 25 * time.Millisecond, Jitter: 10 * time.Millisecond, UplinkBps: 1e6, DownlinkBps: 20e6, Loss: 0.005}
}

// MobileProfile approximates the paper's "slow 3G" mobile attachment:
// 80 ms latency, 4 Mbps down / 1 Mbps up, 2 % loss.
func MobileProfile() LinkProfile {
	return LinkProfile{Latency: 80 * time.Millisecond, Jitter: 40 * time.Millisecond, UplinkBps: 1e6, DownlinkBps: 4e6, Loss: 0.02}
}

// LinkFault describes in-flight message mangling applied network-wide, on
// top of the per-node LinkProfile loss model. The zero value injects
// nothing and costs nothing (no RNG draws), so networks that never set a
// fault keep their historical event streams bit for bit.
//
// Faults are decided per message at send time from the network-level RNG
// stream:
//
//   - Corrupt: with this probability the payload arrives wrapped in
//     Corrupted, so receivers' type assertions fail the way a
//     checksum-mangled frame would fail to parse. Handlers must tolerate
//     (not panic on) such garbage; the conformance suite asserts they do.
//   - Duplicate: with this probability a second copy of the message is
//     delivered HoldBack-uniform later, exercising at-most-once and
//     idempotency handling.
//   - Reorder: with this probability the message is held back an extra
//     uniform [0, HoldBack) beyond its computed arrival, letting later
//     sends overtake it.
type LinkFault struct {
	Corrupt   float64
	Duplicate float64
	Reorder   float64
	// HoldBack bounds the extra delay for reordered messages and duplicate
	// copies. Zero defaults to 50ms — enough to invert delivery order
	// against datacenter RTTs.
	HoldBack time.Duration
}

func (f LinkFault) active() bool { return f.Corrupt > 0 || f.Duplicate > 0 || f.Reorder > 0 }

func (f LinkFault) holdBack() time.Duration {
	if f.HoldBack <= 0 {
		return 50 * time.Millisecond
	}
	return f.HoldBack
}

// Corrupted wraps the payload of a message garbled in flight by a LinkFault.
// Receivers that type-assert their expected payload type see the assertion
// fail and should discard the message; protocol code must never assume
// payloads are well-formed once faults are in play.
type Corrupted struct {
	// Original is the payload the sender transmitted, kept for debugging
	// and tests; handlers should treat the message as unparseable garbage.
	Original any
}

// ledger is the accounting home of the nodes that share an event queue:
// their traffic totals, per-kind delivery-latency histograms, and the
// observability registry their protocol layers annotate. A single-heap
// network has one (the Network's own); a sharded network has one per shard,
// each written only by its shard's worker, and the Network's accessors merge
// them by commutative sums so no result can depend on the shard layout.
type ledger struct {
	trace Trace
	// latency holds per-message-kind delivery latency histograms, created
	// lazily on first delivery of each kind. lastKind/lastLatency memoize
	// the most recent lookup: large-population traffic arrives in long runs
	// of one kind (every DHT RPC shares "simnet.rpc"), so the per-delivery
	// map lookup collapses to a string compare on the hot path.
	latency     map[string]*obs.Histogram
	lastKind    string
	lastLatency *obs.Histogram
	// obs is the registry protocol layers annotate live (via Node.Obs);
	// obs.MergeRegistries folds a sharded network's registries together
	// order-independently at export.
	obs *obs.Registry
}

func newLedger(label string) ledger {
	l := ledger{latency: map[string]*obs.Histogram{}, obs: obs.NewRegistry()}
	// The label orders registries during cross-trial and cross-shard merges.
	l.obs.SetLabel(label)
	obs.AttachCurrent(l.obs)
	return l
}

func (l *ledger) observeLatency(kind string, lat time.Duration) {
	if kind != l.lastKind || l.lastLatency == nil {
		h, ok := l.latency[kind]
		if !ok {
			h = &obs.Histogram{}
			l.latency[kind] = h
		}
		l.lastKind, l.lastLatency = kind, h
	}
	l.lastLatency.Observe(lat.Seconds())
}

// Network is a simulated network of nodes sharing one virtual clock. It
// embeds an event queue (through its own shard), whose Now, Schedule,
// After, ScheduleCall and AfterCall it exposes for harness-level events.
type Network struct {
	// The Network's own execution context: control events run on its queue
	// and its registry is the one Obs returns. In single-heap mode it is
	// also the only shard — every node's events and accounting live here.
	shard
	seed    int64
	rng     *rand.Rand
	nodes   []*Node
	defProf LinkProfile
	// partition maps node -> group id; nodes in different groups cannot
	// exchange messages. Empty map means no partition.
	partition map[NodeID]int
	fault     LinkFault
	// regionOf/regionExtra implement the opt-in inter-region delay matrix
	// (SetRegionMatrix). Both stay nil unless a geography is installed, so
	// the default send path is untouched.
	regionOf    map[NodeID]int
	regionExtra [][]time.Duration
	// queueMetrics opts the send path into recording uplink queue
	// depth/sojourn observations (EnableQueueMetrics). Off by default: the
	// observations create new registry entries, which would perturb the
	// exported snapshots of historical experiments.
	queueMetrics bool
	// total is the merged traffic Trace the accessor of that name returns.
	total   Trace
	running bool

	// shards are the contexts nodes run on (node id mod len): the Network's
	// own in single-heap mode, cfg.Shards separate ones in sharded mode.
	shards  []*shard
	sharded bool
	workers int
	// minLat tracks the smallest profile Latency ever attached to a node;
	// it bounds the conservative lookahead (2·minLat) in sharded mode.
	minLat    time.Duration
	minLatSet bool
	// winEnd/inWindow/jobMode are the window coordinator's state: written
	// only between worker barriers, read by workers during a phase.
	winEnd   time.Duration
	inWindow bool
	jobMode  int
	jobs     chan int
	jobsWG   sync.WaitGroup
}

// New creates a network whose randomness derives entirely from seed.
// Nodes added later default to DatacenterProfile.
func New(seed int64) *Network {
	return NewWithConfig(NetworkConfig{Seed: seed})
}

// NetworkConfig selects the engine layout. The zero value (plus a Seed) is
// the classic single-heap engine; Shards >= 1 opts into the sharded engine
// (shard.go), which partitions nodes across per-shard event heaps and runs
// them on Workers parallel goroutines inside conservative virtual-time
// windows. For a fixed Seed, sharded results are byte-identical at every
// (Shards, Workers) setting — Shards: 1 uses the same sharded semantics on
// a single heap, which is what makes it the honest baseline for the
// determinism suite and for speedup measurements.
type NetworkConfig struct {
	Seed int64
	// Shards partitions nodes (id mod Shards) across independent event
	// heaps. 0 selects the default single-heap engine; >= 1 the sharded
	// engine.
	Shards int
	// Workers is the parallel worker count for sharded execution; 0 means
	// GOMAXPROCS, and it is capped at Shards. Ignored in single-heap mode.
	Workers int
}

// NewWithConfig creates a network with an explicit engine layout; see
// NetworkConfig.
func NewWithConfig(cfg NetworkConfig) *Network {
	nw := &Network{
		seed:      cfg.Seed,
		rng:       networkRand(cfg.Seed),
		defProf:   DatacenterProfile(),
		partition: map[NodeID]int{},
		workers:   1,
	}
	nw.shard.nw = nw
	nw.ledger = newLedger(fmt.Sprintf("seed:%d", cfg.Seed))
	// The publish hook keeps the per-message hot path free of registry work
	// by copying Trace totals and latency quantiles in only when a snapshot
	// is taken.
	nw.obs.OnPublish(nw.publishObs)
	nw.shards = []*shard{&nw.shard}
	if cfg.Shards >= 1 {
		nw.sharded = true
		nw.workers = cfg.Workers
		if nw.workers <= 0 {
			nw.workers = runtime.GOMAXPROCS(0)
		}
		if nw.workers > cfg.Shards {
			nw.workers = cfg.Shards
		}
		nw.shards = make([]*shard, cfg.Shards)
		for i := range nw.shards {
			// Shard labels sort after the root "seed:N" label, keeping
			// merged exports stable regardless of shard count.
			nw.shards[i] = &shard{
				nw:     nw,
				ledger: newLedger(fmt.Sprintf("seed:%d/shard:%03d", cfg.Seed, i)),
				idx:    i,
				outbox: make([][]*event, cfg.Shards),
			}
		}
	}
	return nw
}

// Obs returns the network's observability registry. Protocol layers
// resolve their named metrics once at construction (see Node.Obs) and
// update them live; Snapshot/merge export happens through internal/obs.
func (nw *Network) Obs() *obs.Registry { return nw.obs }

// publishObs mirrors the substrate's accumulated state into the registry.
// Runs on every Registry.Snapshot, so Set (not Add) keeps it idempotent.
func (nw *Network) publishObs(r *obs.Registry) {
	t := nw.Trace()
	r.Counter("net.msg.sent").Set(t.Sent)
	r.Counter("net.msg.delivered").Set(t.Delivered)
	r.Counter("net.msg.dropped").Set(t.Dropped)
	r.Counter("net.msg.unhandled").Set(t.Unhandled)
	r.Counter("net.bytes.sent").Set(t.BytesSent)
	r.Counter("net.bytes.delivered").Set(t.BytesDelivered)
	r.Counter("net.fault.corrupted").Set(t.Corrupted)
	r.Counter("net.fault.duplicated").Set(t.Duplicated)
	r.Counter("net.fault.reordered").Set(t.Reordered)
	r.Gauge("net.nodes").Set(float64(len(nw.nodes)))
	var crashes int64
	var downtime time.Duration
	for _, n := range nw.nodes {
		crashes += int64(n.crashes)
		downtime += n.downtime
	}
	r.Counter("net.node.crashes").Set(crashes)
	r.Gauge("net.node.downtime_s").Set(downtime.Seconds())
	// Map-iteration order is harmless here: each kind Sets independently
	// named values, and the registry export sorts by name.
	for kind, h := range nw.latencySnapshot() { //determinism:ok snapshot export, keys independent
		r.Counter("net.latency." + kind + ".count").Set(int64(h.Count()))
		r.Gauge("net.latency." + kind + ".p50_s").Set(h.Quantile(0.5))
		r.Gauge("net.latency." + kind + ".p95_s").Set(h.Quantile(0.95))
	}
}

// latencySnapshot merges every ledger's per-kind latency histograms into
// fresh ones (integer sums, so shard layout cannot leak into the result).
func (nw *Network) latencySnapshot() map[string]*obs.Histogram {
	out := map[string]*obs.Histogram{}
	for _, sh := range nw.shards {
		for kind, h := range sh.latency { //determinism:ok merge is commutative per kind
			dst, ok := out[kind]
			if !ok {
				dst = &obs.Histogram{}
				out[kind] = dst
			}
			dst.Merge(h)
		}
	}
	return out
}

// SetDefaultProfile changes the link profile assigned to nodes added after
// this call.
func (nw *Network) SetDefaultProfile(p LinkProfile) { nw.defProf = p }

// Rand exposes the network-level RNG stream: substrate draws (loss,
// jitter) and harness-level workload generation. Protocol code running on
// a node should use Node.Rand instead, so the node's behaviour stays
// independent of global event interleaving.
func (nw *Network) Rand() *rand.Rand { return nw.rng }

// Seed returns the seed this network was created with.
func (nw *Network) Seed() int64 { return nw.seed }

// Trace returns the accumulated network-wide traffic counters, re-summed
// over the ledgers on every call (field sums are commutative, so the result
// is independent of shard layout); the returned pointer stays valid and is
// refreshed by subsequent calls.
func (nw *Network) Trace() *Trace {
	var t Trace
	for _, sh := range nw.shards {
		t.add(&sh.trace)
	}
	nw.total = t
	return &nw.total
}

// AddNode creates a node with the current default link profile.
func (nw *Network) AddNode() *Node {
	return nw.AddNodeWithProfile(nw.defProf)
}

// AddNodeWithProfile creates a node with an explicit link profile. The
// node receives its own deterministic RNG stream derived from (network
// seed, node id); see Node.Rand.
func (nw *Network) AddNodeWithProfile(p LinkProfile) *Node {
	id := NodeID(len(nw.nodes))
	n := &Node{
		id:      id,
		nw:      nw,
		profile: p,
		rng:     nodeRand(nw.seed, id),
		up:      true,
	}
	nw.noteLatency(p.Latency)
	n.sh = nw.shards[int(id)%len(nw.shards)]
	// Substrate draws for messages the node sends: the shared network stream
	// in global send order on a single heap; under parallel shards there is
	// no global order, so each node gets its own stream (see substrateRand).
	n.srng = nw.rng
	if nw.sharded {
		n.srng = substrateRand(nw.seed, id)
	}
	nw.nodes = append(nw.nodes, n)
	return n
}

// noteLatency records a profile latency for the sharded engine's lookahead
// bound: the minimum over every profile ever attached is monotone
// non-increasing, so tracking the min at attach time is safe even when
// profiles change mid-run.
func (nw *Network) noteLatency(l time.Duration) {
	if !nw.minLatSet || l < nw.minLat {
		nw.minLat, nw.minLatSet = l, true
	}
}

// Node returns the node with the given id, or nil if out of range.
func (nw *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(nw.nodes) {
		return nil
	}
	return nw.nodes[id]
}

// NumNodes returns how many nodes have been added.
func (nw *Network) NumNodes() int { return len(nw.nodes) }

// Nodes returns the live slice of all nodes (do not mutate).
//
//reach:experiments' conformance tests walk every node's crash count
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Run executes events until the queue empties or virtual time reaches
// until. It returns the virtual time at which it stopped.
func (nw *Network) Run(until time.Duration) time.Duration {
	if nw.sharded {
		return nw.runSharded(until, false)
	}
	if nw.running {
		panic("simnet: re-entrant Run")
	}
	nw.running = true
	defer func() { nw.running = false }()
	for {
		at, ok := nw.peekTime()
		if !ok {
			break
		}
		if at > until {
			nw.now = until
			return nw.now
		}
		nw.step()
	}
	if nw.now < until {
		nw.now = until
	}
	return nw.now
}

// RunAll executes every queued event regardless of time. Useful for tests;
// panics if the queue keeps growing beyond a large safety bound.
func (nw *Network) RunAll() {
	if nw.sharded {
		nw.runSharded(runAllHorizon, true)
		return
	}
	const maxEvents = 50_000_000
	count := 0
	for nw.step() {
		if count++; count > maxEvents {
			panic("simnet: RunAll exceeded event safety bound; runaway schedule?")
		}
	}
}

// Partition splits the network into groups; messages only flow within a
// group. Nodes not listed fall into group 0 alongside the first group.
//
// Drop semantics: a message sent across a partition boundary is dropped at
// send time (Send returns false) and never enters the event queue, so
// healing cannot revive it — senders must retry after the heal. A message
// that was already in flight when the partition appeared is re-checked at
// delivery time: it is dropped if its endpoints are then in different
// groups, and delivered normally if the partition has healed (or never
// separated them) by its arrival. Both kinds of drop are counted in the
// Trace.
func (nw *Network) Partition(groups ...[]NodeID) {
	nw.partition = map[NodeID]int{}
	for gi, g := range groups {
		for _, id := range g {
			nw.partition[id] = gi
		}
	}
}

// Heal removes any partition. Messages sent after the heal flow normally,
// and messages still in flight across the former boundary deliver; messages
// dropped at send time while partitioned stay lost (see Partition).
func (nw *Network) Heal() { nw.partition = map[NodeID]int{} }

// SetRegionMatrix installs an opt-in inter-region propagation-delay
// matrix: a message from a node in region a to a node in region b gains
// extra[a][b] of one-way delay on top of both endpoints' profile latency.
// Nodes absent from the assignment default to region 0. Passing an empty
// assignment (or empty matrix) removes the hook.
//
// The hook is default-off and draws no randomness either way, so a
// network that never installs a geography keeps its historical event
// stream bit for bit — the guarantee the pre-X18 experiment goldens rely
// on. internal/workload.RegionSet.Apply is the intended caller.
func (nw *Network) SetRegionMatrix(region map[NodeID]int, extra [][]time.Duration) {
	if len(region) == 0 || len(extra) == 0 {
		nw.regionOf, nw.regionExtra = nil, nil
		return
	}
	for _, row := range extra {
		if len(row) != len(extra) {
			panic("simnet: region matrix must be square")
		}
	}
	for id, r := range region { //determinism:ok validation only, no ordering effect
		if r < 0 || r >= len(extra) {
			panic(fmt.Sprintf("simnet: node %d assigned to region %d outside matrix [0, %d)", id, r, len(extra)))
		}
	}
	nw.regionOf, nw.regionExtra = region, extra
}

// EnableQueueMetrics starts recording per-send uplink queue observations
// into each sender's registry: a net.queue.depth histogram (messages
// queued on the uplink, including the one being recorded) and a
// net.queue.sojourn_s histogram (queueing plus serialization delay until
// the message departs). Like SetRegionMatrix, the hook is default-off and
// draws no randomness either way, so networks that never enable it keep
// their exported snapshots bit for bit — the guarantee the pre-X20
// experiment goldens rely on.
func (nw *Network) EnableQueueMetrics() { nw.queueMetrics = true }

// SetLinkFault installs f as the network-wide in-flight fault model;
// the zero LinkFault turns injection off.
func (nw *Network) SetLinkFault(f LinkFault) { nw.fault = f }

func (nw *Network) samePartition(a, b NodeID) bool {
	if len(nw.partition) == 0 {
		return true
	}
	return nw.partition[a] == nw.partition[b]
}

// flight carries an in-flight message through the pooled, closure-free
// event path: built on the sender's shard, consumed on the receiver's.
type flight struct {
	nw     *Network
	msg    Message
	sentAt time.Duration
}

var flightPool = sync.Pool{New: func() any { return new(flight) }}

// deliverEvent is the EventFunc for final message delivery; arg is a pooled
// *flight. It runs on the receiver's shard.
func deliverEvent(arg any) {
	f := arg.(*flight)
	nw, msg, sentAt := f.nw, f.msg, f.sentAt
	*f = flight{}
	flightPool.Put(f)

	dst := nw.nodes[msg.To]
	sh := dst.sh
	// Re-check state at delivery time: the receiver may have crashed, or a
	// partition may have appeared, while the message was in flight. In
	// sharded mode this is also where messages to already-down destinations
	// drop (see Send).
	if !dst.up || !nw.samePartition(msg.From, msg.To) {
		sh.trace.Dropped++
		return
	}
	if _, garbled := msg.Payload.(Corrupted); garbled {
		sh.trace.Corrupted++
	}
	sh.trace.Delivered++
	sh.trace.BytesDelivered += int64(msg.Size)
	sh.observeLatency(msg.Kind, sh.now-sentAt)
	if e := dst.lookup(msg.Kind); e != nil {
		e.h(msg)
	} else {
		sh.trace.Unhandled++
	}
}

// Send transmits a message. Delivery is scheduled according to both
// endpoints' link profiles; the message is silently dropped (and counted in
// the trace) if either endpoint is down, the endpoints are partitioned, or
// the loss draw fires. Send reports whether delivery was scheduled.
//
// Accounting: Sent/BytesSent and send-time drops are charged to the
// sender's ledger; Delivered/BytesDelivered/Unhandled and in-flight drops
// to the receiver's. Network.Trace sums the ledgers.
//
// Send runs on the sender's shard and touches only sender-owned state
// (cursors, queue metrics, the sender's substrate stream) plus state that
// changes only at barriers (profiles, partitions, the fault model), so it
// is race-free inside a parallel window. The two places it asks which mode
// it is in are the two things a sender cannot do to a node on another
// shard: read its liveness, and advance its downlink cursor.
func (nw *Network) Send(msg Message) bool {
	src := nw.Node(msg.From)
	dst := nw.Node(msg.To)
	if src == nil || dst == nil {
		panic(fmt.Sprintf("simnet: send between unknown nodes %d -> %d", msg.From, msg.To))
	}
	ssh := src.sh
	ssh.trace.Sent++
	ssh.trace.BytesSent += int64(msg.Size)
	// Mode difference 1: a single heap drops a message to a down
	// destination here; shards leave it to the delivery-time re-check.
	if !src.up || (!nw.sharded && !dst.up) || !nw.samePartition(msg.From, msg.To) {
		ssh.trace.Dropped++
		return false
	}
	// Loss at either endpoint is an independent drop, so the combined
	// probability composes as 1-(1-pa)(1-pb) — summing would overstate the
	// rate (and can exceed 1). The draw happens before the uplink is
	// charged: a lost message never occupies the sender's uplink, so it
	// cannot delay later traffic.
	if pa, pb := src.profile.Loss, dst.profile.Loss; pa > 0 || pb > 0 {
		if p := 1 - (1-pa)*(1-pb); src.srng.Float64() < p {
			ssh.trace.Dropped++
			return false
		}
	}

	// Serialization on the sender's uplink: the message waits for the
	// uplink to free, then occupies it for size/rate. Lane-aware on nodes
	// that enabled the priority uplink; plain FIFO otherwise.
	now := ssh.now
	depart := now
	if src.profile.UplinkBps > 0 {
		ser := secondsToDuration(float64(msg.Size*8) / src.profile.UplinkBps)
		depart = src.serialize(msg.Lane, now, ser)
		if nw.queueMetrics {
			src.noteQueue(now, depart)
		}
	}
	// Propagation + jitter. An installed region matrix (opt-in; see
	// SetRegionMatrix) adds its pairwise inter-region delay.
	delay := src.profile.Latency + dst.profile.Latency
	if nw.regionOf != nil {
		delay += nw.regionExtra[nw.regionOf[msg.From]][nw.regionOf[msg.To]]
	}
	if j := src.profile.Jitter + dst.profile.Jitter; j > 0 {
		delay += time.Duration(src.srng.Int63n(int64(j)))
	}
	arrive := depart + delay
	// Mode difference 2: a single heap charges the receiver's downlink now,
	// in global send order, and schedules the final delivery; shards stage
	// an arrival and charge the downlink there, in arrival order.
	hop := EventFunc(shardArriveEvent)
	if !nw.sharded {
		arrive = dst.downlink(arrive, msg.Size)
		hop = deliverEvent
	}

	// In-flight fault injection. All draws are guarded by their probability,
	// so a zero LinkFault consumes no randomness and perturbs nothing.
	if f := nw.fault; f.active() {
		if f.Corrupt > 0 && src.srng.Float64() < f.Corrupt {
			msg.Payload = Corrupted{Original: msg.Payload}
		}
		if f.Reorder > 0 && src.srng.Float64() < f.Reorder {
			arrive += time.Duration(src.srng.Int63n(int64(f.holdBack())))
			ssh.trace.Reordered++
		}
		if f.Duplicate > 0 && src.srng.Float64() < f.Duplicate {
			// The duplicate is a fault artifact, not a retransmission: it
			// skips link accounting and lands an extra hold-back later.
			ssh.trace.Duplicated++
			extra := time.Duration(src.srng.Int63n(int64(f.holdBack())))
			nw.launch(src, dst, msg, arrive+extra, hop)
		}
	}
	nw.launch(src, dst, msg, arrive, hop)
	return true
}

// launch puts msg in flight: a pooled event on the destination's queue
// that runs hop at time at, keyed by the sender so equal-time arrivals
// order deterministically.
func (nw *Network) launch(src, dst *Node, msg Message, at time.Duration, hop EventFunc) {
	f := flightPool.Get().(*flight)
	f.nw, f.msg, f.sentAt = nw, msg, src.sh.now
	ssh, dsh := src.sh, dst.sh
	e := dsh.alloc()
	e.at, e.h, e.arg = at, hop, f
	e.origin, e.oseq = src.key()
	// Outside a parallel window — harness code, barrier-synced control
	// events, every single-heap run — the destination heap is safe to push
	// into directly; inside one, only the sender's own shard's is.
	if dsh == ssh || !nw.inWindow {
		dsh.push(e)
	} else {
		ssh.stage(dsh, e)
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Trace accumulates traffic statistics. Each ledger holds one, and
// Network.Trace sums them; no node keeps its own.
type Trace struct {
	Sent           int64
	Delivered      int64
	Dropped        int64
	Unhandled      int64
	BytesSent      int64
	BytesDelivered int64
	// Fault-injection counters (see LinkFault). Corrupted and Duplicated
	// deliveries are also counted in Delivered; Reordered counts messages
	// held back, which still deliver exactly once.
	Corrupted  int64
	Duplicated int64
	Reordered  int64
}

// add accumulates o's counters into t (the shard-merge primitive; field
// sums are commutative, so merge order never matters).
func (t *Trace) add(o *Trace) {
	t.Sent += o.Sent
	t.Delivered += o.Delivered
	t.Dropped += o.Dropped
	t.Unhandled += o.Unhandled
	t.BytesSent += o.BytesSent
	t.BytesDelivered += o.BytesDelivered
	t.Corrupted += o.Corrupted
	t.Duplicated += o.Duplicated
	t.Reordered += o.Reordered
}

// Package gossip implements epidemic broadcast with anti-entropy repair
// over internal/simnet. New items flood to a random fanout of peers with
// duplicate suppression; a periodic push-pull digest exchange repairs holes
// left by message loss and downtime.
//
// The federated group-communication model (§3.2: Matrix "provides high
// availability by replicating data over the entire network") and the
// hostless-web seeding layer (§3.4) are built on this package.
package gossip

import (
	"encoding/binary"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Item is one gossiped datum. ID must be unique (typically a content
// hash); Size is the simulated wire size of Data. A published Item is
// allocated once and never written again: every member that holds it, on
// whatever shard, holds the same *Item, and pushes and repairs carry that
// pointer rather than a copy.
type Item struct {
	ID   cryptoutil.Hash
	Data any
	Size int
}

// Config tunes a gossip member.
type Config struct {
	// Fanout is how many random peers each new item is pushed to; it must
	// be positive (NewMember panics otherwise).
	Fanout int
	// AntiEntropyInterval is the period of digest exchanges with a random
	// peer. Zero disables anti-entropy (push-only gossip).
	AntiEntropyInterval time.Duration
}

// Wire kinds.
const (
	msgPush  = "gossip.push"  // payload *Item
	msgSync  = "gossip.sync"  // payload *syncDigest
	msgDelta = "gossip.delta" // payload syncDelta
)

// syncDigest is everything the sender held when it sent the digest: a
// capacity-clipped prefix of its log, not a copy (see sendDigest). It is
// never written after it is built.
type syncDigest struct {
	held []*Item
}

type syncDelta struct {
	items []*Item           // items the receiver was missing
	want  []cryptoutil.Hash // items the sender is missing and requests back
}

// Member is one gossip participant.
type Member struct {
	node  *simnet.Node
	cfg   Config
	peers []simnet.NodeID
	// sample is a persistent index permutation over peers; push() runs a
	// partial Fisher-Yates over it to draw Fanout distinct peers without
	// allocating or shuffling the whole set (rng.Perm is O(peers) work and
	// one allocation per push — ruinous at 10k-member populations).
	sample []int32
	// log is every held item in delivery order. It is append-only: a
	// position, once written, never changes, which is what lets a digest
	// be a view of it.
	log []*Item
	// slots finds an item's log position by ID: an open-addressing table
	// whose slots hold a position + 1 (0 is empty), probed linearly and
	// kept at a load of at most ¼ (see lookup). It holds no pointer, so the
	// GC never scans it, and at 100k members that is most of what it would
	// otherwise mark.
	slots []int32
	// digest is the last digest sent, reused while the log has not grown.
	digest *syncDigest
	// onDeliver observers fire once per item on first receipt.
	onDeliver []func(Item)

	// Observability: network-wide gossip metrics (push fan-out volume,
	// first-time deliveries, anti-entropy rounds, holes repaired by digest
	// exchange). The bundle is Memo-cached on the registry, so it resolves
	// once per network rather than once per member.
	m *gossipMetrics
}

// gossipMetrics is the package's network-scoped counter bundle.
type gossipMetrics struct {
	pushes    *obs.Counter
	delivered *obs.Counter
	rounds    *obs.Counter
	repaired  *obs.Counter
}

func metricsFor(r *obs.Registry) *gossipMetrics {
	return r.Memo("gossip", func() any {
		return &gossipMetrics{
			pushes:    r.Counter("gossip.push.sent"),
			delivered: r.Counter("gossip.item.delivered"),
			rounds:    r.Counter("gossip.antientropy.rounds"),
			repaired:  r.Counter("gossip.repair.items"),
		}
	}).(*gossipMetrics)
}

// NewMember attaches a gossip member to a node. Anti-entropy (if enabled)
// starts immediately and pauses automatically while the node is down.
func NewMember(node *simnet.Node, cfg Config) *Member {
	if cfg.Fanout <= 0 {
		panic("gossip: Config.Fanout must be positive")
	}
	m := &Member{
		node:  node,
		cfg:   cfg,
		slots: make([]int32, minSlots),
		m:     metricsFor(node.Obs()),
	}
	node.Handle(msgPush, m.onPush)
	node.Handle(msgSync, m.onSync)
	node.Handle(msgDelta, m.onDelta)
	if m.cfg.AntiEntropyInterval > 0 {
		m.scheduleAntiEntropy()
	}
	return m
}

// Node returns the underlying simnet node.
func (m *Member) Node() *simnet.Node { return m.node }

// SetPeers replaces the peer set used for pushes and anti-entropy.
func (m *Member) SetPeers(peers []simnet.NodeID) {
	m.peers = peers
	if cap(m.sample) < len(peers) {
		m.sample = make([]int32, len(peers))
	}
	m.sample = m.sample[:len(peers)]
	for i := range m.sample {
		m.sample[i] = int32(i)
	}
}

// OnDeliver registers an observer called exactly once per item, at first
// receipt (including items this member publishes itself).
func (m *Member) OnDeliver(f func(Item)) { m.onDeliver = append(m.onDeliver, f) }

// Has reports whether the member holds the item.
func (m *Member) Has(id cryptoutil.Hash) bool { _, p := m.lookup(&id); return p != 0 }

// Len returns how many items the member holds.
//
//reach:the root alloc gate checks both members converged before measuring
func (m *Member) Len() int { return len(m.log) }

// Publish introduces a new item at this member and pushes it to the
// network. Taking the parameter's address is the item's one allocation.
func (m *Member) Publish(it Item) {
	if m.accept(&it) {
		m.push(&it, -1)
	}
}

// accept stores a new item and fires delivery observers; returns false for
// duplicates.
func (m *Member) accept(it *Item) bool {
	slot, p := m.lookup(&it.ID)
	if p != 0 {
		return false
	}
	if 4*(len(m.log)+1) > len(m.slots) {
		m.grow()
		slot, _ = m.lookup(&it.ID)
	}
	m.log = append(m.log, it)
	m.slots[slot] = int32(len(m.log))
	m.m.delivered.Inc()
	for _, f := range m.onDeliver {
		f(*it)
	}
	return true
}

// minSlots is the slot table's size at construction: it holds 4 items
// before its first doubling.
const minSlots = 16

// lookup returns the slot that holds id, or the empty slot where it would
// go, and the log position + 1 stored there (0: id is not held). The probe
// starts from slotHash, a fold of all four words of the ID, so IDs that are
// not hashes (ones that differ only in their last byte, say) still spread
// over the table; a hit is confirmed against the full ID in the log.
func (m *Member) lookup(id *cryptoutil.Hash) (slot int, p int32) {
	mask := len(m.slots) - 1
	for slot = int(slotHash(id)) & mask; ; slot = (slot + 1) & mask {
		p = m.slots[slot]
		if p == 0 || m.log[p-1].ID == *id {
			return slot, p
		}
	}
}

// slotHash folds the four 64-bit words of id into one and mixes it, so
// that every bit of the ID reaches the low bits a slot index is taken from.
func slotHash(id *cryptoutil.Hash) uint64 {
	h := binary.LittleEndian.Uint64(id[0:]) ^ binary.LittleEndian.Uint64(id[8:]) ^
		binary.LittleEndian.Uint64(id[16:]) ^ binary.LittleEndian.Uint64(id[24:])
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// grow doubles the slot table and refills it from the log, in log order.
// IDs in the log are distinct, so each lookup ends at an empty slot.
func (m *Member) grow() {
	m.slots = make([]int32, 2*len(m.slots))
	for pos, it := range m.log {
		slot, _ := m.lookup(&it.ID)
		m.slots[slot] = int32(pos + 1)
	}
}

// push forwards an item to up to Fanout random peers, skipping exclude. It
// draws peers one at a time with a partial Fisher-Yates over the persistent
// sample permutation: Fanout draws cost O(Fanout) swaps regardless of how
// large the peer set is, and selection stays uniform because the buffer is
// always some permutation of the peer indices.
func (m *Member) push(it *Item, exclude simnet.NodeID) {
	n := len(m.peers)
	if n == 0 {
		return
	}
	rng := m.node.Rand()
	sent := 0
	for i := 0; i < n && sent < m.cfg.Fanout; i++ {
		j := i + rng.Intn(n-i)
		m.sample[i], m.sample[j] = m.sample[j], m.sample[i]
		p := m.peers[m.sample[i]]
		if p == exclude || p == m.node.ID() {
			continue
		}
		m.node.Send(p, msgPush, it, it.Size+40)
		m.m.pushes.Inc()
		sent++
	}
}

func (m *Member) onPush(msg simnet.Message) {
	it := msg.Payload.(*Item)
	if m.accept(it) {
		m.push(it, msg.From) // continue the epidemic
	}
}

func (m *Member) scheduleAntiEntropy() {
	// Jitter the period ±25 % so members don't synchronize. The timer runs
	// on the node's local clock, so skewed members drift apart under fault
	// plans. Scheduling goes through the closure-free AfterCall path with
	// the member itself as the argument: at 10k members this periodic
	// rescheduling would otherwise allocate a capture per round per node.
	period := m.cfg.AntiEntropyInterval
	jit := time.Duration(m.node.Rand().Int63n(int64(period)/2)) - period/4
	m.node.AfterCall(period+jit, antiEntropyEvent, m)
}

// antiEntropyEvent is the EventFunc behind every anti-entropy round; arg is
// the *Member.
func antiEntropyEvent(arg any) {
	m := arg.(*Member)
	m.sendDigest()
	m.scheduleAntiEntropy()
}

// sendDigest opens one anti-entropy round with a random peer.
//
// The digest is the view m.log[:n:n], not a copy. The receiver may run on
// another shard, on another worker, while this member goes on accepting
// items; that is race-free because the two never touch the same memory:
// the receiver reads only elements below n, which are never written again,
// and the capacity clip means it cannot reach further; an append here
// writes at or above n, or copies the prefix — a read — into a new array
// and leaves the old one to the digest. While the log is still n long the
// last digest built is that same view, and it is sent again: a digest is
// never written after it is built, and a longer log gets a new one.
func (m *Member) sendDigest() {
	if !m.node.Up() || len(m.peers) == 0 {
		return
	}
	peer := m.peers[m.node.Rand().Intn(len(m.peers))]
	if peer == m.node.ID() {
		return
	}
	m.m.rounds.Inc()
	n := len(m.log)
	if m.digest == nil || len(m.digest.held) != n {
		m.digest = &syncDigest{held: m.log[:n:n]}
	}
	m.node.Send(peer, msgSync, m.digest, 16+32*n)
}

// onSync diffs the sender's digest against the log: one slot-table probe
// per digest entry, a bitset over log positions for the entries found. When
// both sides agree — nearly every round — it allocates nothing and sends
// nothing.
func (m *Member) onSync(msg simnet.Message) {
	d := msg.Payload.(*syncDigest)
	// theirs marks the log positions the sender already holds; it lives on
	// the stack up to 256 held items.
	var small [4]uint64
	theirs := small[:]
	if words := (len(m.log) + 63) / 64; words > len(small) {
		theirs = make([]uint64, words)
	}
	var delta syncDelta
	size := 16
	for _, it := range d.held { // digest order: deterministic
		if _, p := m.lookup(&it.ID); p != 0 {
			pos := p - 1
			theirs[pos>>6] |= 1 << (uint(pos) & 63)
		} else {
			delta.want = append(delta.want, it.ID)
			size += 32
		}
	}
	for pos, it := range m.log { // delivery order: deterministic
		if theirs[pos>>6]&(1<<(uint(pos)&63)) == 0 {
			delta.items = append(delta.items, it)
			size += it.Size + 40
		}
	}
	if len(delta.items) == 0 && len(delta.want) == 0 {
		return // in sync
	}
	m.node.Send(msg.From, msgDelta, delta, size)
}

func (m *Member) onDelta(msg simnet.Message) {
	d := msg.Payload.(syncDelta)
	for _, it := range d.items {
		if m.accept(it) {
			m.m.repaired.Inc()
		}
	}
	if len(d.want) > 0 {
		var back syncDelta
		size := 16
		for _, id := range d.want {
			if _, p := m.lookup(&id); p != 0 {
				it := m.log[p-1]
				back.items = append(back.items, it)
				size += it.Size + 40
			}
		}
		if len(back.items) > 0 {
			m.node.Send(msg.From, msgDelta, back, size)
		}
	}
}

package gossip

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func item(s string) Item {
	return Item{ID: cryptoutil.SumHash([]byte(s)), Data: s, Size: len(s)}
}

// buildGroup creates n fully meshed gossip members.
func buildGroup(t testing.TB, seed int64, n int, cfg Config) (*simnet.Network, []*Member) {
	t.Helper()
	nw := simnet.New(seed)
	members := make([]*Member, n)
	ids := make([]simnet.NodeID, n)
	for i := range members {
		node := nw.AddNode()
		ids[i] = node.ID()
		members[i] = NewMember(node, cfg)
	}
	for i, m := range members {
		peers := make([]simnet.NodeID, 0, n-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	return nw, members
}

func TestFloodReachesEveryone(t *testing.T) {
	// Push-only flood with fanout 4 is stochastic (per-node miss chance is
	// roughly e^-4); the seed is chosen so this population fully converges.
	nw, members := buildGroup(t, 2, 30, Config{Fanout: 4})
	it := item("hello world")
	members[0].Publish(it)
	nw.Run(time.Minute)
	for i, m := range members {
		if !m.Has(it.ID) {
			t.Errorf("member %d missed the item", i)
		}
	}
}

func TestDeliverFiresOncePerItem(t *testing.T) {
	nw, members := buildGroup(t, 2, 10, Config{Fanout: 5})
	count := 0
	members[3].OnDeliver(func(it Item) { count++ })
	it := item("once")
	members[0].Publish(it)
	members[1].Publish(it) // same item from two origins
	nw.Run(time.Minute)
	if count != 1 {
		t.Errorf("delivered %d times, want 1", count)
	}
	if members[3].Len() != 1 {
		t.Errorf("len = %d", members[3].Len())
	}
}

func TestPublisherReceivesOwnDelivery(t *testing.T) {
	nw, members := buildGroup(t, 3, 3, Config{Fanout: 3})
	got := false
	members[0].OnDeliver(func(it Item) { got = true })
	members[0].Publish(item("self"))
	nw.Run(time.Second)
	if !got {
		t.Error("publisher did not observe its own item")
	}
}

func TestAntiEntropyRepairsCrashedNode(t *testing.T) {
	nw, members := buildGroup(t, 4, 10, Config{Fanout: 2, AntiEntropyInterval: 10 * time.Second})
	late := members[9]
	late.Node().Crash()
	for i := 0; i < 5; i++ {
		members[0].Publish(item(fmt.Sprintf("while-down-%d", i)))
	}
	nw.Run(time.Minute)
	if late.Len() != 0 {
		t.Fatal("crashed node received items")
	}
	late.Node().Restart()
	nw.Run(10 * time.Minute) // several anti-entropy rounds
	if late.Len() != 5 {
		t.Errorf("restarted node has %d/5 items after anti-entropy", late.Len())
	}
}

func TestPushOnlyDoesNotRepair(t *testing.T) {
	nw, members := buildGroup(t, 5, 10, Config{Fanout: 2}) // no anti-entropy
	late := members[9]
	late.Node().Crash()
	members[0].Publish(item("missed"))
	nw.Run(time.Minute)
	late.Node().Restart()
	nw.Run(10 * time.Minute)
	if late.Len() != 0 {
		t.Error("push-only gossip should not repair after restart")
	}
}

func TestAntiEntropyBidirectional(t *testing.T) {
	// Two members each hold a unique item; one sync round should leave both
	// with both items.
	nw, members := buildGroup(t, 6, 2, Config{Fanout: 3, AntiEntropyInterval: 5 * time.Second})
	// Publish while the peer is partitioned away so pushes fail, then heal.
	a, b := members[0], members[1]
	nw.Partition([]simnet.NodeID{a.Node().ID()}, []simnet.NodeID{b.Node().ID()})
	a.Publish(item("from-a"))
	b.Publish(item("from-b"))
	nw.Run(time.Second)
	nw.Heal()
	nw.Run(5 * time.Minute)
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("after sync: a=%d b=%d items, want 2/2", a.Len(), b.Len())
	}
}

func TestLossyNetworkStillConverges(t *testing.T) {
	nw := simnet.New(7)
	nw.SetDefaultProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond, Loss: 0.15})
	members := make([]*Member, 20)
	ids := make([]simnet.NodeID, 20)
	for i := range members {
		node := nw.AddNode()
		ids[i] = node.ID()
		members[i] = NewMember(node, Config{Fanout: 3, AntiEntropyInterval: 20 * time.Second})
	}
	for i, m := range members {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	for i := 0; i < 10; i++ {
		members[i].Publish(item(fmt.Sprintf("msg-%d", i)))
	}
	nw.Run(15 * time.Minute)
	for i, m := range members {
		if m.Len() != 10 {
			t.Errorf("member %d has %d/10 items despite anti-entropy", i, m.Len())
		}
	}
}

// deliveries records the IDs m delivers, in delivery order.
func deliveries(m *Member) *[]cryptoutil.Hash {
	var ids []cryptoutil.Hash
	m.OnDeliver(func(it Item) { ids = append(ids, it.ID) })
	return &ids
}

func TestIDsPreserveDeliveryOrder(t *testing.T) {
	nw, members := buildGroup(t, 8, 2, Config{Fanout: 3})
	a := members[0]
	delivered := deliveries(a)
	i1, i2 := item("first"), item("second")
	a.Publish(i1)
	a.Publish(i2)
	nw.Run(time.Second)
	ids := *delivered
	if len(ids) != 2 || ids[0] != i1.ID || ids[1] != i2.ID {
		t.Error("IDs not in delivery order")
	}
	got, ok := a.Get(i1.ID)
	if !ok || got.Data != "first" {
		t.Error("Get failed")
	}
}

func TestNoPeersPublishIsLocal(t *testing.T) {
	nw := simnet.New(9)
	m := NewMember(nw.AddNode(), Config{Fanout: 3})
	m.Publish(item("solo"))
	nw.Run(time.Second)
	if m.Len() != 1 {
		t.Error("local publish failed with no peers")
	}
	if nw.Trace().Sent != 0 {
		t.Error("peerless member sent traffic")
	}
}

// hold makes m hold the items without pushing them anywhere, as if they had
// arrived from members outside the test.
func hold(m *Member, items []Item) {
	for i := range items {
		m.accept(&items[i])
	}
}

// captureDelta replaces m's delta handler with one that records what
// arrives, so a test can read the exact reply to one of m's digests.
func captureDelta(m *Member) *[]simnet.Message {
	var got []simnet.Message
	m.node.Handle(msgDelta, func(msg simnet.Message) { got = append(got, msg) })
	return &got
}

func numbered(prefix string, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = item(fmt.Sprintf("%s-%d", prefix, i))
	}
	return items
}

// TestDigestIsThePrefixSent pins the zero-copy digest: a member that accepts
// more items between sending a digest and its delivery is diffed against
// exactly the prefix it sent. The receiver already holds the late items; a
// digest that saw the sender's appends would make it keep them back. Both
// kinds of append are covered: one that regrows the log and one that writes
// into its spare capacity.
func TestDigestIsThePrefixSent(t *testing.T) {
	regrew := map[bool]bool{}
	for _, tc := range []struct{ prefix, late int }{{16, 20}, {17, 10}, {64, 1}, {65, 30}} {
		prefix := tc.prefix
		nw, members := buildGroup(t, 11, 2, Config{Fanout: 3})
		a, b := members[0], members[1]
		shared, late := numbered("shared", prefix), numbered("late", tc.late)
		hold(a, shared)
		hold(b, shared)
		hold(b, late)
		reply := captureDelta(a)

		a.sendDigest() // the digest leaves now and arrives a latency later
		first := &a.log[0]
		hold(a, late)
		regrew[first != &a.log[0]] = true
		nw.Run(time.Second)

		if len(*reply) != 1 {
			t.Fatalf("prefix %d: %d deltas came back, want 1", prefix, len(*reply))
		}
		d := (*reply)[0].Payload.(syncDelta)
		if len(d.want) != 0 {
			t.Errorf("prefix %d: receiver asks for %d items it holds", prefix, len(d.want))
		}
		if len(d.items) != len(late) {
			t.Fatalf("prefix %d: delta carries %d items, want the %d outside the prefix sent", prefix, len(d.items), len(late))
		}
		for i, it := range d.items {
			if it.ID != late[i].ID {
				t.Errorf("prefix %d: delta item %d is not late item %d", prefix, i, i)
			}
		}
	}
	if !regrew[true] || !regrew[false] {
		t.Errorf("append kinds covered: regrow=%v in-place=%v, want both", regrew[true], regrew[false])
	}
}

// referenceDelta is the anti-entropy reply written the obvious way, with
// plain maps: what the receiver holds and the digest lacks, in the
// receiver's delivery order; what the digest lists and the receiver lacks,
// in digest order; and the modelled size of the two.
func referenceDelta(digest, receiver []Item) (items, want []cryptoutil.Hash, size int) {
	theirs := map[cryptoutil.Hash]bool{}
	for _, it := range digest {
		theirs[it.ID] = true
	}
	mine := map[cryptoutil.Hash]bool{}
	size = 16
	for _, it := range receiver {
		mine[it.ID] = true
		if !theirs[it.ID] {
			items = append(items, it.ID)
			size += it.Size + 40
		}
	}
	for _, it := range digest {
		if !mine[it.ID] {
			want = append(want, it.ID)
			size += 32
		}
	}
	return items, want, size
}

// TestSyncDeltaMatchesReference checks onSync against referenceDelta on
// random holdings: 0–600 items a side out of a shared universe, each side in
// its own delivery order, a quarter of the cases fully in sync. Holdings
// above 256 items take the heap bitset, smaller ones the stack one.
func TestSyncDeltaMatchesReference(t *testing.T) {
	universe := numbered("u", 700)
	draw := func(rng *rand.Rand) []Item {
		perm := rng.Perm(len(universe))[:rng.Intn(601)]
		out := make([]Item, len(perm))
		for i, p := range perm {
			out[i] = universe[p]
		}
		return out
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nw, members := buildGroup(t, seed, 2, Config{Fanout: 3})
		a, b := members[0], members[1]
		holdA := draw(rng)
		holdB := draw(rng)
		if rng.Intn(4) == 0 {
			holdB = append([]Item(nil), holdA...)
			rng.Shuffle(len(holdB), func(i, j int) { holdB[i], holdB[j] = holdB[j], holdB[i] })
		}
		hold(a, holdA)
		hold(b, holdB)
		reply := captureDelta(a)
		a.node.Send(b.node.ID(), msgSync, &syncDigest{held: a.log}, 16+32*len(a.log))
		nw.Run(time.Second)

		items, want, size := referenceDelta(holdA, holdB)
		if len(items) == 0 && len(want) == 0 {
			return len(*reply) == 0
		}
		if len(*reply) != 1 {
			t.Logf("seed %d: %d deltas, want 1", seed, len(*reply))
			return false
		}
		msg := (*reply)[0]
		d := msg.Payload.(syncDelta)
		var gotItems []cryptoutil.Hash // nil when empty, like the reference's
		for _, it := range d.items {
			gotItems = append(gotItems, it.ID)
		}
		ok := reflect.DeepEqual(gotItems, items) && reflect.DeepEqual(d.want, want) && msg.Size == size
		if !ok {
			t.Logf("seed %d: |A|=%d |B|=%d: items %d/%d want %d/%d size %d/%d",
				seed, len(holdA), len(holdB), len(gotItems), len(items), len(d.want), len(want), msg.Size, size)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSlotTableMatchesMap checks the slot table against a map on random
// holdings of up to 600 items, half of them at 600, so every doubling up
// to 4,096 slots is crossed. The IDs are random SumHash IDs, and IDs that
// share a random base and differ only in their last byte, the shape that
// would form probe chains if the probe start did not mix every word of
// the ID. After each accept the load is at most ¼ and a second accept of
// a held item is refused; at each doubling and at the end every held ID
// reads back through Has and Get, absent IDs miss, and no probe runs far
// from its ID's home slot.
func TestSlotTableMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var base cryptoutil.Hash
		rng.Read(base[:])
		ids := make([]cryptoutil.Hash, 0, 856)
		for b := 0; b < 256; b++ {
			id := base
			id[len(id)-1] = byte(b)
			ids = append(ids, id)
		}
		for i := 0; i < 600; i++ {
			ids = append(ids, cryptoutil.SumHash([]byte(fmt.Sprintf("slot-%d-%d", seed, i))))
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		n := 600 // half the cases cross every doubling
		if rng.Intn(2) == 0 {
			n = rng.Intn(601)
		}
		held, absent := ids[:n], ids[600:]

		m := NewMember(simnet.New(seed).AddNode(), Config{Fanout: 3})
		ref := map[cryptoutil.Hash]int{}
		ok := true
		fail := func(format string, args ...any) {
			t.Logf("seed %d, %d held: "+format, append([]any{seed, len(ref)}, args...)...)
			ok = false
		}
		check := func() {
			longest := 0
			for id, i := range ref {
				got, found := m.Get(id)
				if !m.Has(id) || !found || got.ID != id || got.Data != i {
					fail("held ID %d reads back as %+v, %v", i, got, found)
				}
				slot, _ := m.lookup(&id)
				longest = max(longest, (slot-int(slotHash(&id)))&(len(m.slots)-1))
			}
			for _, id := range absent {
				if _, found := m.Get(id); m.Has(id) || found {
					fail("absent ID found")
				}
			}
			if longest > 16 {
				fail("a probe runs %d slots past its home in a table of %d", longest, len(m.slots))
			}
		}
		for i, id := range held {
			if !m.accept(&Item{ID: id, Data: i}) {
				fail("new ID %d refused", i)
			}
			ref[id] = i
			dup := held[rng.Intn(i+1)]
			if m.accept(&Item{ID: dup, Data: -1}) {
				fail("held ID accepted twice")
			}
			if 4*len(m.log) > len(m.slots) {
				fail("load %d/%d is above 1/4", len(m.log), len(m.slots))
			}
			if n := len(m.log); n&(n-1) == 0 {
				check()
			}
		}
		check()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestDigestReusedWhileLogUnchanged checks that a member sends one digest
// for as long as its log keeps its length, and a new view, one item longer
// and leaving the old digest as it was, once it accepts an item.
func TestDigestReusedWhileLogUnchanged(t *testing.T) {
	nw, members := buildGroup(t, 14, 2, Config{Fanout: 3})
	a, b := members[0], members[1]
	var got []*syncDigest
	b.node.Handle(msgSync, func(msg simnet.Message) { got = append(got, msg.Payload.(*syncDigest)) })
	items := numbered("digest", 9)
	hold(a, items[:8])
	a.sendDigest()
	a.sendDigest()
	nw.Run(time.Second)
	hold(a, items[8:])
	a.sendDigest()
	nw.Run(2 * time.Second)

	if len(got) != 3 {
		t.Fatalf("%d digests arrived, want 3", len(got))
	}
	if got[0] != got[1] {
		t.Error("two digests with no accept between them are different values")
	}
	if got[2] == got[0] {
		t.Fatal("the digest after an accept is the one before it")
	}
	if len(got[0].held) != 8 || len(got[2].held) != 9 {
		t.Errorf("digests hold %d and %d items, want 8 and 9", len(got[0].held), len(got[2].held))
	}
	for i, it := range got[2].held {
		if it.ID != items[i].ID {
			t.Errorf("digest entry %d is not item %d", i, i)
		}
	}
}

// TestRepairedItemsReadBack checks the inspection API over the log and slots
// after a repair: what anti-entropy delivered reads back, through Get,
// OnDeliver and Len, as what was published.
func TestRepairedItemsReadBack(t *testing.T) {
	nw, members := buildGroup(t, 12, 2, Config{Fanout: 3, AntiEntropyInterval: 5 * time.Second})
	a, b := members[0], members[1]
	delivered := deliveries(b)
	nw.Partition([]simnet.NodeID{a.Node().ID()}, []simnet.NodeID{b.Node().ID()})
	published := numbered("repaired", 300)
	for _, it := range published {
		a.Publish(it)
	}
	nw.Run(time.Second)
	if b.Len() != 0 {
		t.Fatal("pushes crossed the partition")
	}
	nw.Heal()
	nw.Run(time.Minute)

	if b.Len() != len(published) {
		t.Fatalf("b holds %d items after repair, want %d", b.Len(), len(published))
	}
	ids := *delivered
	for i, it := range published {
		if ids[i] != it.ID {
			t.Fatalf("delivery %d is not item %d: repair must keep the sender's delivery order", i, i)
		}
		got, ok := b.Get(it.ID)
		if !ok || got != it {
			t.Fatalf("Get(item %d) = %+v, %v; want %+v", i, got, ok, it)
		}
	}
	if _, ok := b.Get(cryptoutil.SumHash([]byte("never published"))); ok {
		t.Error("Get found an item nobody published")
	}
}

// TestDigestReadWhileSenderAppends runs members on parallel shard workers
// with digests constantly in flight while every member keeps accepting
// items — the case the zero-copy digest must survive: a receiver on one
// worker reads a log prefix whose owner, on another, appends past it. Under
// `make race` the detector watches those accesses; in any mode the outcome
// must equal the one-worker run's.
func TestDigestReadWhileSenderAppends(t *testing.T) {
	run := func(workers int) string {
		nw := simnet.NewWithConfig(simnet.NetworkConfig{Seed: 13, Shards: 4, Workers: workers})
		const n = 16
		members := make([]*Member, n)
		ids := make([]simnet.NodeID, n)
		for i := range members {
			members[i] = NewMember(nw.AddNode(), Config{Fanout: 1, AntiEntropyInterval: 20 * time.Millisecond})
			ids[i] = members[i].node.ID()
		}
		logs := make([]*[]cryptoutil.Hash, n)
		for i, m := range members {
			m.SetPeers(ids)
			logs[i] = deliveries(m)
		}
		for k := 0; k < 200; k++ {
			m, it := members[k%n], item(fmt.Sprintf("stream-%d", k))
			m.node.After(time.Duration(k)*3*time.Millisecond, func() { m.Publish(it) })
		}
		nw.Run(2 * time.Second)
		out := fmt.Sprintf("%+v", *nw.Trace())
		for i, m := range members {
			if m.Len() != 200 {
				t.Errorf("workers=%d: member %d holds %d/200 items", workers, m.node.ID(), m.Len())
			}
			out += fmt.Sprint(*logs[i])
		}
		return out
	}
	if one, four := run(1), run(4); one != four {
		t.Error("outcome differs between 1 and 4 workers")
	}
}

// Get returns a held item.
func (m *Member) Get(id cryptoutil.Hash) (Item, bool) {
	_, p := m.lookup(&id)
	if p == 0 {
		return Item{}, false
	}
	return *m.log[p-1], true
}

package dht

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func key(s string) Key { return cryptoutil.SumHash([]byte(s)) }

// LookupNode runs an iterative FIND_NODE and returns the K closest
// contacts to target. The lookup lends its result for the callback only,
// so done gets a copy.
func (p *Peer) LookupNode(target Key, done func([]Contact)) {
	p.lookup(target, false, lookupFunc(func(cs []Contact, _ []byte, _ bool) {
		done(append([]Contact(nil), cs...))
	}))
}

func TestDistanceLess(t *testing.T) {
	target := Key{}
	a := Key{0, 1}
	b := Key{0, 2}
	if !DistanceLess(target, a, b) {
		t.Error("a should be closer")
	}
	if DistanceLess(target, b, a) {
		t.Error("b should not be closer")
	}
	if DistanceLess(target, a, a) {
		t.Error("equal distance is not less")
	}
}

func TestBucketIndex(t *testing.T) {
	self := Key{}
	if BucketIndex(self, self) != -1 {
		t.Error("self should map to -1")
	}
	// MSB difference -> bucket 255.
	far := Key{0x80}
	if got := BucketIndex(self, far); got != 255 {
		t.Errorf("msb bucket = %d, want 255", got)
	}
	// Lowest bit difference -> bucket 0.
	var near Key
	near[31] = 1
	if got := BucketIndex(self, near); got != 0 {
		t.Errorf("lsb bucket = %d, want 0", got)
	}
}

func TestRoutingTableInsertAndClosest(t *testing.T) {
	self := key("self")
	rt := newRoutingTable(self, 20)
	var contacts []Contact
	for i := 0; i < 100; i++ {
		c := Contact{ID: key(fmt.Sprintf("n%d", i)), Addr: simnet.NodeID(i)}
		contacts = append(contacts, c)
		rt.observe(c)
	}
	if rt.size() == 0 {
		t.Fatal("table empty")
	}
	target := key("target")
	got := rt.closest(target, 5)
	if len(got) != 5 {
		t.Fatalf("closest returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if DistanceLess(target, got[i].ID, got[i-1].ID) {
			t.Error("closest not sorted by distance")
		}
	}
	// Re-observing an existing contact must not grow the table.
	before := rt.size()
	rt.observe(contacts[0])
	if rt.size() != before {
		t.Error("duplicate observe grew table")
	}
}

func TestRoutingTableEvictKeep(t *testing.T) {
	self := Key{} // zero self makes bucket targeting easy
	rt := newRoutingTable(self, 2)
	// Three contacts in the same top bucket (MSB set).
	mk := func(b byte) Contact {
		var k Key
		k[0] = 0x80
		k[31] = b
		return Contact{ID: k, Addr: simnet.NodeID(b)}
	}
	c1, c2, c3 := mk(1), mk(2), mk(3)
	if _, full := rt.observe(c1); full {
		t.Fatal("inserts into non-full bucket should not return candidates")
	}
	if _, full := rt.observe(c2); full {
		t.Fatal("inserts into non-full bucket should not return candidates")
	}
	cand, full := rt.observe(c3)
	if !full || cand.ID != c1.ID {
		t.Fatal("full bucket should nominate the least-recently-seen occupant")
	}
	// Liveness check failed: evict and insert newcomer.
	rt.evict(cand, c3)
	if got := rt.closest(self, 10); len(got) != 2 {
		t.Fatalf("table size %d after evict, want 2", len(got))
	}
	for _, c := range rt.closest(self, 10) {
		if c.ID == c1.ID {
			t.Error("evicted contact still present")
		}
	}
	// refresh moves to tail: observe c2 then check candidate rotation.
	rt.refresh(c2.ID)
	cand, full = rt.observe(mk(4))
	if !full || cand.ID != c3.ID {
		t.Errorf("after refresh, LRS should be c3")
	}
	rt.remove(c3.ID)
	if rt.size() != 1 {
		t.Errorf("size after remove = %d", rt.size())
	}
}

// buildNetwork creates n bootstrapped DHT peers on a fresh simnet.
func buildNetwork(t testing.TB, seed int64, n int, cfg Config) (*simnet.Network, []*Peer) {
	t.Helper()
	nw := simnet.New(seed)
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = NewPeer(nw.AddNode(), Key{}, cfg)
	}
	// Bootstrap everyone through peer 0, staggered to avoid thundering herd.
	for i := 1; i < n; i++ {
		i := i
		nw.After(time.Duration(i)*100*time.Millisecond, func() {
			peers[i].Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.Run(time.Duration(n) * 200 * time.Millisecond)
	return nw, peers
}

func TestPutGetAcrossNetwork(t *testing.T) {
	nw, peers := buildNetwork(t, 21, 50, Config{})
	k := key("the answer")
	val := []byte("42")

	stored := -1
	peers[7].Put(k, val, func(n int) { stored = n })
	nw.Run(nw.Now() + 30*time.Second)
	if stored <= 0 {
		t.Fatalf("put acked by %d nodes", stored)
	}

	// Every peer must be able to find it.
	misses := 0
	for i, p := range peers {
		var got []byte
		found := false
		p.Get(k, func(v []byte, ok bool) { got, found = v, ok })
		nw.Run(nw.Now() + 30*time.Second)
		if !found || !bytes.Equal(got, val) {
			misses++
			t.Errorf("peer %d: get failed (found=%v)", i, found)
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d peers missed the value", misses, len(peers))
	}
}

func TestGetMissingKey(t *testing.T) {
	nw, peers := buildNetwork(t, 22, 20, Config{})
	found := true
	peers[3].Get(key("never stored"), func(v []byte, ok bool) { found = ok })
	nw.Run(nw.Now() + 30*time.Second)
	if found {
		t.Error("lookup of missing key reported found")
	}
}

func TestLookupNodeReturnsClosest(t *testing.T) {
	nw, peers := buildNetwork(t, 23, 40, Config{})
	target := key("lookup target")
	var got []Contact
	peers[5].LookupNode(target, func(cs []Contact) { got = cs })
	nw.Run(nw.Now() + 30*time.Second)
	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	// Verify the first result is the globally closest live peer.
	var best Key
	first := true
	for _, p := range peers {
		if p.id == peers[5].id {
			continue
		}
		if first || DistanceLess(target, p.id, best) {
			best = p.id
			first = false
		}
	}
	if got[0].ID != best {
		t.Errorf("lookup best = %s, want %s", got[0].ID.Short(), best.Short())
	}
}

func TestValueSurvivesOriginatorCrash(t *testing.T) {
	nw, peers := buildNetwork(t, 24, 30, Config{})
	k := key("durable")
	peers[2].Put(k, []byte("v"), nil)
	nw.Run(nw.Now() + 30*time.Second)
	peers[2].Node().Crash()

	found := false
	peers[9].Get(k, func(v []byte, ok bool) { found = ok })
	nw.Run(nw.Now() + 30*time.Second)
	if !found {
		t.Error("value lost when originator crashed (should be replicated on K nodes)")
	}
}

func TestStatsAccumulate(t *testing.T) {
	nw, peers := buildNetwork(t, 27, 20, Config{})
	lookups, stores := nw.Obs().Counter("dht.lookup.started"), nw.Obs().Counter("dht.store.sent")
	l0, s0 := lookups.Value(), stores.Value()
	peers[0].Put(key("x"), []byte("y"), nil)
	nw.Run(nw.Now() + 30*time.Second)
	if lookups.Value() == l0 || stores.Value() == s0 {
		t.Errorf("counters not accumulating: lookups %d -> %d, stores %d -> %d", l0, lookups.Value(), s0, stores.Value())
	}
	if peers[0].TableSize() == 0 {
		t.Error("routing table empty after activity")
	}
}

func TestDerivedIDStable(t *testing.T) {
	nw := simnet.New(1)
	n := nw.AddNode()
	p1 := NewPeer(n, Key{}, Config{})
	if p1.id.IsZero() {
		t.Error("derived ID should be nonzero")
	}
	explicit := key("explicit")
	p2 := NewPeer(nw.AddNode(), explicit, Config{})
	if p2.id != explicit {
		t.Error("explicit ID not respected")
	}
}

func BenchmarkLookup100Nodes(b *testing.B) {
	nw, peers := buildNetwork(b, 30, 100, Config{})
	k := key("bench")
	peers[0].Put(k, []byte("v"), nil)
	nw.Run(nw.Now() + 30*time.Second)
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := peers[rng.Intn(len(peers))]
		done := false
		p.Get(k, func(v []byte, ok bool) { done = ok })
		nw.Run(nw.Now() + 30*time.Second)
		if !done {
			b.Fatal("lookup failed")
		}
	}
}

//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// given, so a pooled reply or ping record is sometimes allocated afresh;
// these gates only hold in normal builds.

package dht

import "testing"

// TestAllocDHTServeMiss: serving a find_value for a key the peer does not
// hold — observe the asker, select the K closest into a reply — allocates
// nothing once the asker is known and the reply pool is warm. The test
// releases each reply as a lookup would.
func TestAllocDHTServeMiss(t *testing.T) {
	_, peers := buildNetwork(t, 43, 40, Config{K: 8})
	p := peers[7]
	asker := p.rt.closest(key("asker"), 1)[0]
	var req any = &findNodeReq{From: asker, Target: key("never stored")}
	serve := func() {
		resp, _ := p.onFindValue(asker.Addr, req)
		r := resp.(*findResp)
		if r.Found || len(r.Contacts) != 8 {
			t.Fatalf("miss served found=%v with %d contacts", r.Found, len(r.Contacts))
		}
		replyPool.Put(r)
	}
	for i := 0; i < 10; i++ {
		serve()
	}
	if avg := testing.AllocsPerRun(1000, serve); avg != 0 {
		t.Errorf("find_value miss allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestAllocDHTPingEvict: a newcomer that lands in a full bucket costs a
// ping-before-evict round trip to the bucket's least-recently-seen
// occupant. With the occupant alive the newcomer is dropped and the
// bucket is unchanged, so the same insert can repeat; in steady state the
// whole round trip — observe, ping, serve, reply, refresh — allocates
// nothing: the ping's Completion is a pooled record and the RPC layer
// pools the rest.
func TestAllocDHTPingEvict(t *testing.T) {
	nw, peers := buildNetwork(t, 44, 20, Config{K: 1})
	p := peers[3]
	occ := p.rt.closest(key("occupant"), 1)[0]
	// Same bucket as occ: flipping the lowest bit keeps the highest bit
	// that differs from p's ID.
	c := Contact{ID: occ.ID, Addr: peers[4].Node().ID()}
	c.ID[len(c.ID)-1] ^= 1
	if BucketIndex(p.id, c.ID) != BucketIndex(p.id, occ.ID) {
		t.Fatal("newcomer landed in another bucket")
	}
	insert := func() {
		p.observe(c)
		nw.RunAll()
	}
	for i := 0; i < 10; i++ {
		insert()
	}
	sent := nw.Trace().Sent
	insert()
	if got := nw.Trace().Sent - sent; got != 2 {
		t.Fatalf("an insert into the full bucket sent %d messages, want the ping and its reply", got)
	}
	if b, i := p.rt.find(occ.ID); i < 0 || len(b.entries) != 1 {
		t.Fatal("the live occupant lost its slot")
	}
	if avg := testing.AllocsPerRun(1000, insert); avg != 0 {
		t.Errorf("ping-before-evict allocates %.2f/op in steady state, want 0", avg)
	}
}

package webapp

import (
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/simnet"
)

// appWorld builds n app runtimes over a bootstrapped DHT.
func appWorld(t testing.TB, seed int64, n int) (*simnet.Network, []*AppRuntime) {
	t.Helper()
	nw := simnet.New(seed)
	rts := make([]*AppRuntime, n)
	var seedContact dht.Contact
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		if i == 0 {
			seedContact = d.Contact()
		} else {
			d.Bootstrap(seedContact, nil)
		}
		rts[i] = NewAppRuntime(node, d)
	}
	nw.Run(time.Minute)
	return nw, rts
}

func TestAppStorageAPI(t *testing.T) {
	nw, rts := appWorld(t, 1, 8)
	stored := -1
	rts[0].StorePut("game-state", []byte(`{"score":42}`), func(n int) { stored = n })
	nw.Run(nw.Now() + time.Minute)
	if stored <= 0 {
		t.Fatalf("stored on %d nodes", stored)
	}
	var got []byte
	ok := false
	rts[5].StoreGet("game-state", func(v []byte, o bool) { got, ok = v, o })
	nw.Run(nw.Now() + time.Minute)
	if !ok || string(got) != `{"score":42}` {
		t.Fatalf("get: ok=%v %q", ok, got)
	}
	rts[5].StoreGet("missing-key", func(v []byte, o bool) { ok = o })
	nw.Run(nw.Now() + time.Minute)
	if ok {
		t.Error("missing key found")
	}
}

func TestAppTransportAPI(t *testing.T) {
	nw, rts := appWorld(t, 3, 3)
	var gotFrom simnet.NodeID
	var gotPayload []byte
	rts[1].OnMessage(func(from simnet.NodeID, payload []byte) { gotFrom, gotPayload = from, payload })
	if !rts[0].SendTo(rts[1].Node().ID(), []byte("hello app")) {
		t.Fatal("send failed")
	}
	nw.Run(nw.Now() + time.Minute)
	if string(gotPayload) != "hello app" || gotFrom != rts[0].Node().ID() {
		t.Fatalf("delivery: from=%v payload=%q", gotFrom, gotPayload)
	}
	if rts[1].MessagesReceived != 1 {
		t.Error("message count")
	}
}

// TestAppEndToEnd is the freedom.js scenario: instances rendezvous through
// the DHT, connect directly, and exchange state — no server anywhere.
func TestAppEndToEnd(t *testing.T) {
	nw, rts := appWorld(t, 4, 6)
	// Instance 2 announces itself for app "p2p-chat".
	done := false
	rts[2].Rendezvous("p2p-chat", func() { done = true })
	nw.Run(nw.Now() + time.Minute)
	if !done {
		t.Fatal("rendezvous did not complete")
	}
	// Instance 4 discovers it and opens a direct channel.
	var peer simnet.NodeID
	found := false
	rts[4].FindInstance("p2p-chat", func(p simnet.NodeID, ok bool) { peer, found = p, ok })
	nw.Run(nw.Now() + time.Minute)
	if !found || peer != rts[2].Node().ID() {
		t.Fatalf("discovery: found=%v peer=%v", found, peer)
	}
	var reply []byte
	rts[4].OnMessage(func(from simnet.NodeID, payload []byte) { reply = payload })
	rts[2].OnMessage(func(from simnet.NodeID, payload []byte) {
		rts[2].SendTo(from, append([]byte("echo: "), payload...))
	})
	rts[4].SendTo(peer, []byte("ping"))
	nw.Run(nw.Now() + time.Minute)
	if string(reply) != "echo: ping" {
		t.Fatalf("reply = %q", reply)
	}
	// Unknown app discovery misses.
	found = true
	rts[4].FindInstance("no-such-app", func(p simnet.NodeID, ok bool) { found = ok })
	nw.Run(nw.Now() + time.Minute)
	if found {
		t.Error("ghost app discovered")
	}
}

// P2pchat: the freedom.js scenario of §3.4 — a serverless chat application
// whose "back-end" runs entirely in the participants' browsers (simulated
// nodes). The app uses the three freedom.js APIs: identity (names resolved
// through the blockchain naming layer), storage (a global DHT for the
// shared room roster), and transport (direct peer-to-peer messages). No
// server exists anywhere in the exchange.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/naming"
	"repro/internal/simnet"
	"repro/internal/webapp"
)

func main() {
	nw := simnet.New(77)
	rng := rand.New(rand.NewSource(77))

	fmt.Println("== 1. identities registered on the blockchain naming layer")
	alice, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}
	// A single local chain stands in for each client's synced replica.
	c := chain.NewChain(chain.Config{
		InitialDifficulty: 4,
		GenesisAlloc: map[chain.Address]uint64{
			alice.Fingerprint(): 1000,
			bob.Fingerprint():   1000,
		},
	})
	nameCfg := naming.DefaultConfig()
	mine := func(txs ...*chain.Tx) {
		ts := time.Duration(c.Head().Header.Time) + time.Second
		b, err := c.NewBlock(c.HeadHash(), txs, ts, chain.Address{1})
		if err != nil {
			log.Fatal(err)
		}
		if err := c.AddBlock(b); err != nil {
			log.Fatal(err)
		}
	}
	aliceClient := naming.NewClient(alice, nameCfg, rng, 0)
	bobClient := naming.NewClient(bob, nameCfg, rng, 0)
	preA, _ := aliceClient.Preorder("alice.chat")
	preB, _ := bobClient.Preorder("bob.chat")
	mine(preA, preB)
	mine(aliceClient.Register("alice.chat", nil), bobClient.Register("bob.chat", nil))
	idx := naming.BuildIndex(c, nameCfg)
	resolver := func(name string) (cryptoutil.Hash, bool) { return idx.ResolveOwner(name) }
	fmt.Printf("   alice.chat → %s\n   bob.chat   → %s\n",
		must(resolver("alice.chat")).Short(), must(resolver("bob.chat")).Short())

	fmt.Println("\n== 2. app instances boot in two 'browsers' over a shared DHT")
	mkRuntime := func() *webapp.AppRuntime {
		node := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		return webapp.NewAppRuntime(node, dht.NewPeer(node, dht.Key{}, dht.Config{}))
	}
	appAlice := mkRuntime()
	appBob := mkRuntime()
	// Extra DHT-only participants so storage survives either browser closing.
	var extras []*webapp.AppRuntime
	for i := 0; i < 4; i++ {
		extras = append(extras, mkRuntime())
	}
	all := append([]*webapp.AppRuntime{appAlice, appBob}, extras...)
	for _, rt := range all[1:] {
		rt.DHT().Bootstrap(appAlice.DHT().Contact(), nil)
	}
	nw.Run(time.Minute)

	fmt.Println("\n== 3. rendezvous through the DHT, then direct transport")
	appAlice.Rendezvous("chat:alice.chat", nil)
	nw.Run(nw.Now() + time.Minute)
	var alicePeer simnet.NodeID
	appBob.FindInstance("chat:alice.chat", func(p simnet.NodeID, ok bool) {
		if !ok {
			log.Fatal("rendezvous lookup failed")
		}
		alicePeer = p
	})
	nw.Run(nw.Now() + time.Minute)

	appAlice.OnMessage(func(from simnet.NodeID, payload []byte) {
		fmt.Printf("   alice ← %q\n", payload)
		appAlice.SendTo(from, []byte("hi bob, no servers here"))
	})
	appBob.OnMessage(func(from simnet.NodeID, payload []byte) {
		fmt.Printf("   bob   ← %q\n", payload)
	})
	appBob.SendTo(alicePeer, []byte("hello alice, this is bob.chat"))
	nw.Run(nw.Now() + time.Minute)

	fmt.Println("\n== 4. shared state persists in the DHT, surviving a browser close")
	appAlice.StorePut("room:history", []byte("bob: hello / alice: hi"), nil)
	nw.Run(nw.Now() + time.Minute)
	appAlice.Node().Crash() // alice closes her browser
	var history []byte
	appBob.StoreGet("room:history", func(v []byte, ok bool) {
		if !ok {
			log.Fatal("history lost")
		}
		history = v
	})
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   history after alice left: %q\n", history)
}

func must(h cryptoutil.Hash, ok bool) cryptoutil.Hash {
	if !ok {
		log.Fatal("name did not resolve")
	}
	return h
}

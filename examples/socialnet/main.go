// Socialnet: the §3.2 group-communication scenario — a three-instance
// federation (Mastodon/Matrix style) with per-instance moderation,
// defederation, instance failure, and an end-to-end-encrypted DM over the
// double ratchet. The run demonstrates the paper's claims: federated
// instances fail independently (OStatus bottleneck), Matrix-style
// replication survives server loss, and E2E encryption hides bodies while
// metadata stays visible to the servers.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/gossip"
	"repro/internal/groupcomm"
	"repro/internal/resil"
	"repro/internal/simnet"
)

func main() {
	nw := simnet.New(11)
	fmt.Println("== 1. a federation of three instances, each with its own rules")
	policies := map[string]*groupcomm.ModerationPolicy{
		"mastodon.example": {BannedWords: []string{"crypto-scam"}},
		"strict.example":   {BannedWords: []string{"crypto-scam", "rudeness"}},
		"anything.example": nil,
	}
	names := []string{"mastodon.example", "strict.example", "anything.example"}
	insts := make([]*groupcomm.FedInstance, 3)
	for i, n := range names {
		insts[i] = groupcomm.NewFedInstance(nw.AddNode(), n, policies[n])
	}
	for i, a := range insts {
		for j, b := range insts {
			if i != j {
				a.AddPeer(b.Name(), b.Node().ID())
			}
		}
	}
	users := []groupcomm.UserID{"alice", "bob", "carol"}
	clients := make([]*groupcomm.FedClient, 3)
	for i, u := range users {
		insts[i].AddUser(u)
		clients[i] = groupcomm.NewFedClient(nw.AddNode(), insts[i].Node().ID(), u, 10*time.Second)
	}
	for i := range users {
		for j := range users {
			insts[i].Follow(users[i], users[j], names[j])
		}
	}
	nw.RunAll()

	post := func(c *groupcomm.FedClient, text string) {
		ok := false
		c.Post("town", []byte(text), func(o bool) { ok = o })
		nw.RunAll()
		fmt.Printf("   %-6s posts %q → accepted=%v\n", who(c, clients, users), text, ok)
	}
	read := func(c *groupcomm.FedClient) {
		var got []groupcomm.Post
		okRead := false
		c.Read(func(ps []groupcomm.Post, ok bool) { got, okRead = ps, ok })
		nw.RunAll()
		if !okRead {
			fmt.Printf("   %-6s reads → INSTANCE UNREACHABLE\n", who(c, clients, users))
			return
		}
		fmt.Printf("   %-6s reads %d posts\n", who(c, clients, users), len(got))
	}

	post(clients[0], "hello fediverse")
	post(clients[1], "rudeness is my brand") // blocked by strict.example's own policy
	post(clients[2], "crypto-scam inside")   // accepted at home, filtered by others
	read(clients[0])
	read(clients[1])

	fmt.Println("\n== 2. strict.example defederates anything.example")
	insts[1].Defederate("anything.example")
	post(clients[2], "still here")
	read(clients[1]) // bob no longer sees carol's new posts

	fmt.Println("\n== 3. mastodon.example crashes — its user goes dark (OStatus bottleneck)")
	insts[0].Node().Crash()
	post(clients[0], "can anyone hear me?")
	read(clients[0])
	read(clients[2]) // others carry on

	fmt.Println("\n== 4. the same room on Matrix-style replicated servers survives a crash")
	repl := make([]*groupcomm.ReplServer, 3)
	rids := make([]simnet.NodeID, 3)
	for i := range repl {
		repl[i] = groupcomm.NewReplServer(nw.AddNode(), fmt.Sprintf("hs%d", i), nil,
			gossip.Config{Fanout: 2, AntiEntropyInterval: 10 * time.Second})
		rids[i] = repl[i].Node().ID()
	}
	for i, s := range repl {
		var peers []simnet.NodeID
		for j, id := range rids {
			if j != i {
				peers = append(peers, id)
			}
		}
		s.SetPeers(peers)
	}
	mAlice := groupcomm.NewReplClient(nw.AddNode(), rids[0], rids, "alice", 5*time.Second, resil.Config{})
	mBob := groupcomm.NewReplClient(nw.AddNode(), rids[1], rids, "bob", 5*time.Second, resil.Config{})
	mAlice.Post("room", []byte("replicated hello"), func(bool) {})
	nw.Run(nw.Now() + time.Minute)
	repl[1].Node().Crash() // bob's home server dies
	var bobGot []groupcomm.Post
	mBob.Fetch("room", func(ps []groupcomm.Post, ok bool) { bobGot = ps })
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   bob's home server dead; failover read finds %d post(s) ✓\n", len(bobGot))

	fmt.Println("\n== 5. encrypted DM over the double ratchet (bodies hidden, metadata not)")
	rng := rand.New(rand.NewSource(5))
	secret := cryptoutil.HKDF([]byte("alice-bob session"), nil, nil, 32)
	bobDH, err := cryptoutil.GenerateDHKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}
	aliceR, err := groupcomm.NewRatchetInitiator(rng, secret, bobDH.Public)
	if err != nil {
		log.Fatal(err)
	}
	bobR := groupcomm.NewRatchetResponder(rng, secret, bobDH)
	msg, err := aliceR.Encrypt([]byte("meet at the old server room"), []byte("alice→bob"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   wire bytes (server-visible): %x…\n", msg.Ciphertext[:16])
	pt, err := bobR.Decrypt(msg, []byte("alice→bob"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   bob decrypts: %q\n", pt)
	for _, e := range groupcomm.Exposures() {
		fmt.Printf("   metadata observers under %-22s: %d\n", e.Model, e.ObserverCount(3))
	}
}

func who(c *groupcomm.FedClient, clients []*groupcomm.FedClient, users []groupcomm.UserID) groupcomm.UserID {
	for i := range clients {
		if clients[i] == c {
			return users[i]
		}
	}
	return "?"
}

// Quickstart: the end-to-end tour of the decentralized stack this
// repository builds — one run shows every §3 layer of the paper working
// together on a simulated network:
//
//  1. a proof-of-work blockchain comes up (3 miners),
//  2. alice registers "alice.id" with preorder/register (§3.1, Blockstack
//     style) binding her key and a zone hash,
//  3. alice stores a file on storage providers under an on-chain contract,
//     audits it with a proof-of-storage challenge, and pays for the proven
//     epoch (§3.3, Sia/Filecoin style),
//  4. bob resolves "alice.id" on his own chain replica and downloads the
//     file, verifying every byte against content addresses.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/naming"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

func main() {
	nw := simnet.New(7)
	rng := rand.New(rand.NewSource(7))

	alice, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== 1. boot a blockchain (3 miners, 10s blocks)\n")
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{alice.Fingerprint(): 10_000},
	}
	miners := make([]*chain.Miner, 3)
	ids := make([]simnet.NodeID, 3)
	for i := range miners {
		node := nw.AddNode()
		ids[i] = node.ID()
		miners[i] = chain.NewMiner(node, chain.NewChain(cfg), cryptoutil.SumHash([]byte{byte(i)}),
			float64(cfg.InitialDifficulty)/spacing.Seconds()/3)
	}
	for i, m := range miners {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
		m.Start()
	}
	nw.Run(nw.Now() + 30*time.Second)
	fmt.Printf("   chain height %d on every replica\n\n", miners[0].Chain().Height())

	fmt.Printf("== 2. alice registers alice.id (preorder → register)\n")
	nameCfg := naming.DefaultConfig()
	nameClient := naming.NewClient(alice, nameCfg, rng, 0)
	pre, err := nameClient.Preorder("alice.id")
	if err != nil {
		log.Fatal(err)
	}
	miners[0].SubmitTx(pre)
	nw.Run(nw.Now() + 3*spacing)

	fmt.Printf("== 3. alice stores a file with an on-chain contract\n")
	file := []byte("Re-decentralizing the Internet, one simulated packet at a time.\n")
	file = append(file, bytes.Repeat([]byte("data"), 512)...)
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	providers := make([]*storage.Provider, 4)
	refs := make([]storage.ProviderRef, 4)
	for i := range providers {
		providers[i] = storage.NewProvider(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()), storage.ProviderConfig{Capacity: 1 << 30})
		providers[i].SetPrice(2)
		refs[i] = providers[i].Ref()
	}
	var manifest *storage.Manifest
	var placement *storage.Placement
	client.Upload(file, 1024, refs, 3, func(m *storage.Manifest, pl *storage.Placement, err error) {
		if err != nil {
			log.Fatal(err)
		}
		manifest, placement = m, pl
	})
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   stored %d bytes as %d chunks x%d replicas (min redundancy %d)\n",
		manifest.Size, len(manifest.Chunks), manifest.Replicas, placement.MinRedundancy(manifest))

	contract := &storage.Contract{
		Client:        alice.Fingerprint(),
		Provider:      cryptoutil.SumHash([]byte("provider-0 payout")),
		FileID:        manifest.FileID,
		SizeBytes:     int64(manifest.Size),
		PricePerEpoch: 2,
		Epochs:        3,
		ProofEvery:    6,
	}
	// Anchor the contract at nonce 1 (the preorder consumed nonce 0), then
	// advance the naming client past it and register at nonce 2.
	miners[0].SubmitTx(contract.AnchorTx(alice, 1))
	zone := cryptoutil.SumHash([]byte("zonefile: alice's pointers"))
	nameClient.SetNonce(2)
	miners[0].SubmitTx(nameClient.Register("alice.id", zone[:]))
	nw.Run(nw.Now() + 4*spacing)

	fmt.Printf("== 4. audit the providers, pay for the proven epoch\n")
	// The providers sit on lossy home-broadband links, so a challenge round
	// trip can time out without anyone cheating; re-audit once before
	// treating a failure as real.
	var report *storage.AuditReport
	for attempt := 0; attempt < 2; attempt++ {
		client.Audit(manifest, placement, 10*time.Second, func(r *storage.AuditReport) { report = r })
		nw.Run(nw.Now() + time.Minute)
		if report.Failed() == 0 {
			break
		}
	}
	fmt.Printf("   audit: %d/%d challenges passed\n", report.Passed(), len(report.Results))
	if report.Failed() == 0 {
		miners[0].SubmitTx(contract.PaymentTx(alice, 3))
		nw.Run(nw.Now() + 3*spacing)
		fmt.Printf("   provider balance on-chain: %d\n\n", miners[0].Chain().State().Balance(contract.Provider))
	}

	fmt.Printf("== 5. bob resolves alice.id on his own replica and fetches the file\n")
	idx := naming.BuildIndex(miners[1].Chain(), nameCfg) // bob's replica
	rec, ok := idx.Resolve("alice.id")
	if !ok {
		log.Fatal("alice.id did not resolve")
	}
	fmt.Printf("   alice.id → owner %s, zone hash %x…\n", rec.Owner.Short(), rec.Value[:8])
	var fetched []byte
	client.Download(manifest, placement, func(data []byte, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fetched = data
	})
	nw.Run(nw.Now() + time.Minute)
	if !bytes.Equal(fetched, file) {
		log.Fatal("downloaded file differs!")
	}
	fmt.Printf("   fetched %d bytes, content verified ✓\n\n", len(fetched))

	contracts := storage.ContractsOnChain(miners[2].Chain())
	fmt.Printf("== summary: chain height %d, %d contract(s) on chain, ledger %d bytes\n",
		miners[0].Chain().Height(), len(contracts), miners[0].Chain().TotalBytes())
	for _, m := range miners {
		m.Stop()
	}
}

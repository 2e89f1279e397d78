// Storagemarket: the §3.3 scenario — a decentralized storage marketplace
// in the Sia/Storj/Filecoin mould. Providers post asks; a client picks the
// cheapest, anchors contracts on the blockchain, uploads with erasure
// coding, audits every epoch with proof-of-storage challenges, pays only
// providers that prove possession, and catches a cheater who discarded the
// data ("nodes are therefore incentivized to contribute storage … and to
// cooperate").
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

func main() {
	nw := simnet.New(21)
	rng := rand.New(rand.NewSource(21))
	clientKey, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}

	// One-miner chain is enough for a market demo ledger.
	spacing := 10 * time.Second
	ccfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{clientKey.Fingerprint(): 1_000},
	}
	miner := chain.NewMiner(nw.AddNode(), chain.NewChain(ccfg), cryptoutil.SumHash([]byte("miner")),
		float64(ccfg.InitialDifficulty)/spacing.Seconds())
	miner.Start()

	fmt.Println("== 1. providers post asks (price per epoch, free space)")
	type seller struct {
		p      *storage.Provider
		addr   chain.Address
		honest bool
	}
	sellers := make([]seller, 6)
	var asks []storage.Ask
	for i := range sellers {
		cheat := storage.Honest
		honest := true
		if i == 2 { // one provider will take the money and drop the data
			cheat = storage.DropAfterAck
			honest = false
		}
		p := storage.NewProvider(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()), storage.ProviderConfig{Capacity: 1 << 30, Cheat: cheat})
		price := uint64(2 + rng.Intn(5))
		p.SetPrice(price)
		addr := cryptoutil.SumHash([]byte(fmt.Sprintf("seller-%d", i)))
		sellers[i] = seller{p: p, addr: addr, honest: honest}
		asks = append(asks, storage.Ask{Ref: p.Ref(), Address: addr, PricePerEpoch: price, FreeBytes: 1 << 30})
		fmt.Printf("   provider %d: price %d/epoch%s\n", i, price, map[bool]string{false: "   (secretly a cheater)", true: ""}[honest])
	}

	fmt.Println("\n== 2. client picks the 4 cheapest asks and uploads RS(2,4) shards")
	chosen := storage.SelectAsks(asks, 4096, 4)
	refs := make([]storage.ProviderRef, len(chosen))
	for i, a := range chosen {
		refs[i] = a.Ref
	}
	data := append([]byte("contracted data: "), bytes.Repeat([]byte("x"), 4000)...)
	// Providers sit on lossy home-broadband links, so the client rides the
	// adaptive transport: a dropped put is retried at the estimated RTO
	// instead of failing the whole placement.
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Defaults())
	var m *storage.Manifest
	var pl *storage.Placement
	client.UploadErasure(data, 2, 2, refs, func(mm *storage.Manifest, pp *storage.Placement, err error) {
		if err != nil {
			log.Fatal(err)
		}
		m, pl = mm, pp
	})
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   %d shards placed; redundancy %.1fx\n", len(m.Chunks), m.RedundancyFactor())

	fmt.Println("\n== 3. contracts anchored on chain, one per chosen provider")
	nonce := uint64(0)
	contracts := map[simnet.NodeID]*storage.Contract{}
	for _, a := range chosen {
		ct := &storage.Contract{
			Client:        clientKey.Fingerprint(),
			Provider:      a.Address,
			FileID:        m.FileID,
			SizeBytes:     int64(m.Size),
			PricePerEpoch: a.PricePerEpoch,
			Epochs:        3,
			ProofEvery:    6,
		}
		contracts[a.Ref.Node] = ct
		miner.SubmitTx(ct.AnchorTx(clientKey, nonce))
		nonce++
	}
	nw.Run(nw.Now() + 3*spacing)
	fmt.Printf("   %d contracts visible on chain\n", len(storage.ContractsOnChain(miner.Chain())))

	fmt.Println("\n== 4. three epochs: audit → pay only provers")
	paid := map[chain.Address]uint64{}
	for epoch := 1; epoch <= 3; epoch++ {
		var report *storage.AuditReport
		client.Audit(m, pl, 10*time.Second, func(r *storage.AuditReport) { report = r })
		nw.Run(nw.Now() + time.Minute)
		failedNodes := map[simnet.NodeID]bool{}
		for _, res := range report.Results {
			if !res.OK {
				failedNodes[res.Holder.Node] = true
			}
		}
		for node, ct := range contracts {
			if failedNodes[node] {
				fmt.Printf("   epoch %d: provider at node %d FAILED its proof → no payment\n", epoch, node)
				continue
			}
			miner.SubmitTx(ct.PaymentTx(clientKey, nonce))
			nonce++
			paid[ct.Provider] += ct.PricePerEpoch
		}
		nw.Run(nw.Now() + 3*spacing)
	}
	st := miner.Chain().State()
	for _, a := range chosen {
		fmt.Printf("   provider %s earned %d on-chain\n", a.Address.Short(), st.Balance(a.Address))
	}

	fmt.Println("\n== 5. the data is still recoverable (erasure tolerates the cheater)")
	var got []byte
	client.Download(m, pl, func(d []byte, err error) {
		if err != nil {
			log.Fatal(err)
		}
		got = d
	})
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   downloaded %d bytes, verified: %v\n", len(got), bytes.Equal(got, data))
	miner.Stop()
}

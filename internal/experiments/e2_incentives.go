package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/naming"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// incentiveDemos is demo E2: it executes the incentive mechanism of every
// Table 2 row against live providers, one honest and one adversarial per
// mechanism. The resulting table shows that each implemented scheme rewards honest
// behaviour and catches (or starves) the cheater — the property §3.3 says
// these mechanisms exist to provide.
func incentiveDemos(env Env) *Table {
	t := &Table{Headers: []string{"System", "Mechanism", "Honest Provider", "Cheating Provider"}}
	for _, row := range core.Table2() {
		honest, cheater := runIncentive(env, row.Incentive)
		t.Add(row.System, row.Incentive, honest, cheater)
	}
	return t
}

func runIncentive(env Env, id core.IncentiveID) (honest, cheater string) {
	switch id {
	case core.IncentiveBitswap:
		return bitswapDemo(env)
	case core.IncentiveProofOfStorage:
		return proofDemo(env, storage.DropAfterAck, "pos")
	case core.IncentiveProofOfRetrievability:
		return proofDemo(env, storage.DropAfterAck, "ret")
	case core.IncentiveProofOfReplication:
		return proofDemo(env, storage.DedupReplicas, "rep")
	case core.IncentiveNone:
		return blockstackDemo(env)
	}
	return "?", "?"
}

func bitswapDemo(env Env) (string, string) {
	nw := env.Net()
	server := storage.NewBitswapNode(nw.AddNode())
	freerider := storage.NewBitswapNode(nw.AddNode())
	good := storage.NewBitswapNode(nw.AddNode())
	var serverBlocks, goodBlocks []cryptoutil.Hash
	rng := rand.New(rand.NewSource(env.Seed))
	for i := 0; i < 16; i++ {
		blk := make([]byte, 512)
		rng.Read(blk)
		serverBlocks = append(serverBlocks, server.Put(blk))
		blk2 := make([]byte, 512)
		rng.Read(blk2)
		goodBlocks = append(goodBlocks, good.Put(blk2))
	}
	goodOK, freeRefused := 0, 0
	for i := range serverBlocks {
		server.Want(good.Node().ID(), goodBlocks[i], time.Minute, func(bool, bool) {})
		good.Want(server.Node().ID(), serverBlocks[i], time.Minute, func(ok, refused bool) {
			if ok {
				goodOK++
			}
		})
		freerider.Want(server.Node().ID(), serverBlocks[i], time.Minute, func(ok, refused bool) {
			if refused {
				freeRefused++
			}
		})
		nw.RunAll()
	}
	return fmt.Sprintf("served %d/%d blocks", goodOK, len(serverBlocks)),
		fmt.Sprintf("refused after debt limit (%d refusals)", freeRefused)
}

func proofDemo(env Env, cheat storage.CheatMode, proof string) (string, string) {
	nw := env.Net()
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	honest := storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 30})
	cheater := storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 30, Cheat: cheat})
	data := make([]byte, 2048)
	nw.Rand().Read(data)
	chunk := storage.NewChunk(data)

	var m *storage.Manifest
	var pl *storage.Placement
	client.Upload(data, 0, []storage.ProviderRef{honest.Ref(), cheater.Ref()}, 2,
		func(mm *storage.Manifest, pp *storage.Placement, err error) { m, pl = mm, pp })
	for r := 0; r < 2; r++ {
		client.PutSealed(chunk.ID, data, honest.Ref(), r, func(bool) {})
		client.PutSealed(chunk.ID, data, cheater.Ref(), r, func(bool) {})
	}
	nw.Run(nw.Now() + time.Minute)

	results := map[simnet.NodeID]bool{}
	switch proof {
	case "pos":
		client.Audit(m, pl, 10*time.Second, func(r *storage.AuditReport) {
			byNode := map[simnet.NodeID]bool{honest.Node().ID(): true, cheater.Node().ID(): true}
			for _, res := range r.Results {
				if !res.OK {
					byNode[res.Holder.Node] = false
				}
			}
			results = byNode
		})
	case "ret":
		sentinels, err := storage.MakeSentinels(nw.Rand(), data, 2)
		if err != nil {
			panic(err)
		}
		client.RetAudit(chunk.ID, honest.Ref(), sentinels[0], 10*time.Second, func(ok bool) { results[honest.Node().ID()] = ok })
		client.RetAudit(chunk.ID, cheater.Ref(), sentinels[1], 10*time.Second, func(ok bool) { results[cheater.Node().ID()] = ok })
	case "rep":
		passes := map[simnet.NodeID]int{}
		for _, p := range []*storage.Provider{honest, cheater} {
			for r := 0; r < 2; r++ {
				root := storage.SealedRoot(data, p.Node().ID(), r)
				node := p.Node().ID()
				client.RepAudit(chunk.ID, root, len(data), p.Ref(), r, 10*time.Second, func(ok bool) {
					if ok {
						passes[node]++
					}
				})
			}
		}
		nw.Run(nw.Now() + time.Minute)
		results[honest.Node().ID()] = passes[honest.Node().ID()] == 2
		results[cheater.Node().ID()] = passes[cheater.Node().ID()] == 2
	}
	nw.Run(nw.Now() + time.Minute)

	describe := func(pass bool) string {
		if pass {
			return "audit passed → paid"
		}
		return "audit failed → payment withheld"
	}
	return describe(results[honest.Node().ID()]), describe(results[cheater.Node().ID()])
}

// blockstackDemo shows the Table 2 Blockstack row: the chain binds a name
// to a key and zone-file hash; there is no storage incentive because the
// data lives wherever the user chooses.
func blockstackDemo(env Env) (string, string) {
	rng := rand.New(rand.NewSource(env.Seed))
	kp, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		panic(err)
	}
	c := chain.NewChain(chain.Config{
		InitialDifficulty: 4,
		GenesisAlloc:      map[chain.Address]uint64{kp.Fingerprint(): 10000},
	})
	cfg := naming.DefaultConfig()
	cl := naming.NewClient(kp, cfg, rng, 0)
	mine := func(txs ...*chain.Tx) {
		ts := time.Duration(c.Head().Header.Time) + time.Second
		b, err := c.NewBlock(c.HeadHash(), txs, ts, chain.Address{1})
		if err != nil {
			panic(err)
		}
		if err := c.AddBlock(b); err != nil {
			panic(err)
		}
	}
	zoneHash := cryptoutil.SumHash([]byte("zone file stored at user's chosen provider"))
	pre, err := cl.Preorder("alice.id")
	if err != nil {
		panic(err)
	}
	mine(pre)
	mine(cl.Register("alice.id", zoneHash[:]))
	idx := naming.BuildIndex(c, cfg)
	if rec, ok := idx.Resolve("alice.id"); ok && string(rec.Value) == string(zoneHash[:]) {
		return "name→key→zone-hash bound on chain", "n/a (no storage incentive by design)"
	}
	return "binding failed", "n/a"
}

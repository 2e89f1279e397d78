// Cross-subsystem integration tests: each test exercises at least two of
// the repository's packages together, mirroring how a real deployment of
// the paper's "democratized Internet" stack would compose them.
package repro

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/naming"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/webapp"
)

// minerNet builds n meshed miners sharing a config.
func minerNet(t testing.TB, nw *simnet.Network, n int, cfg chain.Config, hashrate float64) []*chain.Miner {
	t.Helper()
	miners := make([]*chain.Miner, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		ids[i] = node.ID()
		miners[i] = chain.NewMiner(node, chain.NewChain(cfg), cryptoutil.SumHash([]byte{byte(i), 0xEE}), hashrate)
	}
	for i, m := range miners {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	return miners
}

// TestNamingOverLiveChain drives the naming layer through a mined chain:
// preorder and register flow through real miners and confirm on every
// replica identically.
func TestNamingOverLiveChain(t *testing.T) {
	nw := simnet.New(101)
	rng := rand.New(rand.NewSource(101))
	kp, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{kp.Fingerprint(): 10_000},
	}
	miners := minerNet(t, nw, 3, cfg, float64(cfg.InitialDifficulty)/spacing.Seconds()/3)
	for _, m := range miners {
		m.Start()
	}
	nameCfg := naming.DefaultConfig()
	cl := naming.NewClient(kp, nameCfg, rng, 0)
	pre, err := cl.Preorder("integration.id")
	if err != nil {
		t.Fatal(err)
	}
	miners[0].SubmitTx(pre)
	// Run long enough that the preorder confirms with near certainty before
	// the register is submitted: block discovery is exponential, so a 3×
	// spacing window leaves a ~5 % chance of an empty chain.
	nw.Run(8 * spacing)
	miners[1].SubmitTx(cl.Register("integration.id", []byte("zone"))) // submit via another miner
	nw.Run(nw.Now() + 8*spacing)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	var owners []chain.Address
	for i, m := range miners {
		idx := naming.BuildIndex(m.Chain(), nameCfg)
		rec, ok := idx.Resolve("integration.id")
		if !ok {
			t.Fatalf("miner %d cannot resolve the name", i)
		}
		owners = append(owners, rec.Owner)
	}
	for _, o := range owners {
		if o != kp.Fingerprint() {
			t.Fatal("replicas disagree on the owner")
		}
	}
}

// TestStorageContractSettlementOverChain runs the full storage economy:
// upload, on-chain contract, audit, per-epoch payment mined into blocks.
func TestStorageContractSettlementOverChain(t *testing.T) {
	nw := simnet.New(103)
	rng := rand.New(rand.NewSource(103))
	kp, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{kp.Fingerprint(): 1000},
	}
	miners := minerNet(t, nw, 2, cfg, float64(cfg.InitialDifficulty)/spacing.Seconds()/2)
	for _, m := range miners {
		m.Start()
	}
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	provider := storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 30})
	payout := cryptoutil.SumHash([]byte("payout"))

	data := bytes.Repeat([]byte("contract data "), 100)
	var m *storage.Manifest
	var pl *storage.Placement
	client.Upload(data, 512, []storage.ProviderRef{provider.Ref()}, 1,
		func(mm *storage.Manifest, pp *storage.Placement, err error) {
			if err != nil {
				t.Fatal(err)
			}
			m, pl = mm, pp
		})
	nw.Run(nw.Now() + time.Minute)

	ct := &storage.Contract{
		Client:        kp.Fingerprint(),
		Provider:      payout,
		FileID:        m.FileID,
		SizeBytes:     int64(m.Size),
		PricePerEpoch: 7,
		Epochs:        2,
	}
	miners[0].SubmitTx(ct.AnchorTx(kp, 0))
	nw.Run(nw.Now() + 3*spacing)
	if got := storage.ContractsOnChain(miners[1].Chain()); len(got) != 1 {
		t.Fatalf("contract not replicated on chain: %d", len(got))
	}

	var report *storage.AuditReport
	client.Audit(m, pl, 10*time.Second, func(r *storage.AuditReport) { report = r })
	nw.Run(nw.Now() + time.Minute)
	if report.Failed() != 0 {
		t.Fatalf("audit failed: %d", report.Failed())
	}
	miners[0].SubmitTx(ct.PaymentTx(kp, 1))
	nw.Run(nw.Now() + 4*spacing)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()
	for i, m := range miners {
		if bal := m.Chain().State().Balance(payout); bal != 7 {
			t.Errorf("miner %d sees payout balance %d, want 7", i, bal)
		}
	}
}

// TestWebappNamingBridge registers a human-readable name on the chain whose
// value is a hostless site address; a visitor resolves name → site → files.
// This is the full Zooko-triangle stack: human-meaningful (name), secure
// (signatures end to end), decentralized (chain + DHT + seeding).
func TestWebappNamingBridge(t *testing.T) {
	nw := simnet.New(107)
	rng := rand.New(rand.NewSource(107))
	owner, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}

	// Chain side.
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{owner.Fingerprint(): 10_000},
	}
	miners := minerNet(t, nw, 2, cfg, float64(cfg.InitialDifficulty)/spacing.Seconds()/2)
	for _, m := range miners {
		m.Start()
	}

	// Web side.
	tracker := webapp.NewTracker(nw.AddNode())
	mkPeer := func() *webapp.Peer {
		node := nw.AddNode()
		return webapp.NewPeer(node, dht.NewPeer(node, dht.Key{}, dht.Config{}), tracker.Node().ID(), 10*time.Second, webapp.PeerConfig{})
	}
	authorPeer := mkPeer()
	visitorPeer := mkPeer()
	visitorPeer.DHT().Bootstrap(authorPeer.DHT().Contact(), nil)
	nw.Run(nw.Now() + time.Minute)

	var site cryptoutil.Hash
	authorPeer.Publish(owner, 1, map[string][]byte{"index.html": []byte("<p>named site</p>")}, cryptoutil.Hash{},
		func(m *webapp.Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)

	// Bind name → site address on the chain.
	nameCfg := naming.DefaultConfig()
	cl := naming.NewClient(owner, nameCfg, rng, 0)
	pre, err := cl.Preorder("my-site")
	if err != nil {
		t.Fatal(err)
	}
	miners[0].SubmitTx(pre)
	nw.Run(nw.Now() + 3*spacing)
	miners[0].SubmitTx(cl.Register("my-site", site[:]))
	nw.Run(nw.Now() + 6*spacing)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	// Visitor resolves the name on their replica, then visits the site.
	idx := naming.BuildIndex(miners[1].Chain(), nameCfg)
	rec, ok := idx.Resolve("my-site")
	if !ok {
		t.Fatal("name did not resolve")
	}
	if len(rec.Value) != 32 {
		t.Fatalf("name value has %d bytes, want 32", len(rec.Value))
	}
	var resolved cryptoutil.Hash
	copy(resolved[:], rec.Value)
	if resolved != site {
		t.Fatalf("resolved %s != site %s", resolved.Short(), site.Short())
	}
	var files map[string][]byte
	visitorPeer.Visit(resolved, func(f map[string][]byte, err error) {
		if err != nil {
			t.Fatalf("visit: %v", err)
		}
		files = f
	})
	nw.Run(nw.Now() + time.Minute)
	if string(files["index.html"]) != "<p>named site</p>" {
		t.Fatalf("content mismatch: %q", files["index.html"])
	}
}

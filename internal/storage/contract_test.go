package storage

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func chainKey(t testing.TB, seed int64) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestContractEncodeDecodeAndID(t *testing.T) {
	ct := &Contract{
		Client:        chain.Address{1},
		Provider:      chain.Address{2},
		FileID:        cryptoutil.SumHash([]byte("f")),
		SizeBytes:     1000,
		PricePerEpoch: 5,
		Epochs:        10,
		ProofEvery:    4,
	}
	got, err := DecodeContract(ct.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ct {
		t.Error("round trip mismatch")
	}
	if ct.PricePerEpoch*uint64(ct.Epochs) != 50 {
		t.Error("total price")
	}
	if ct.ID().IsZero() {
		t.Error("zero ID")
	}
	if _, err := DecodeContract([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestContractAnchorAndScan(t *testing.T) {
	clientKey := chainKey(t, 1)
	c := chain.NewChain(chain.Config{
		InitialDifficulty: 4,
		GenesisAlloc:      map[chain.Address]uint64{clientKey.Fingerprint(): 1000},
	})
	ct := &Contract{
		Client:        clientKey.Fingerprint(),
		Provider:      chain.Address{2},
		FileID:        cryptoutil.SumHash([]byte("file")),
		SizeBytes:     4096,
		PricePerEpoch: 3,
		Epochs:        5,
	}
	anchor := ct.AnchorTx(clientKey, 0)
	b, err := c.NewBlock(c.HeadHash(), []*chain.Tx{anchor}, time.Second, chain.Address{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	found := ContractsOnChain(c)
	if len(found) != 1 || found[0].ID() != ct.ID() {
		t.Fatalf("found %d contracts", len(found))
	}

	// A forged contract claiming another client must be ignored.
	mallory := chainKey(t, 2)
	cMallory := chain.NewChain(chain.Config{
		InitialDifficulty: 4,
		GenesisAlloc:      map[chain.Address]uint64{mallory.Fingerprint(): 1000},
	})
	forged := &Contract{Client: clientKey.Fingerprint(), Provider: chain.Address{3}, Epochs: 1}
	tx := forged.AnchorTx(mallory, 0) // signed by mallory, claims clientKey
	b2, err := cMallory.NewBlock(cMallory.HeadHash(), []*chain.Tx{tx}, time.Second, chain.Address{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := cMallory.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if got := ContractsOnChain(cMallory); len(got) != 0 {
		t.Error("forged client binding accepted")
	}
}

func TestContractSettlement(t *testing.T) {
	clientKey := chainKey(t, 3)
	provider := chain.Address{0x50}
	c := chain.NewChain(chain.Config{
		InitialDifficulty: 4,
		GenesisAlloc:      map[chain.Address]uint64{clientKey.Fingerprint(): 1000},
	})
	ct := &Contract{
		Client:        clientKey.Fingerprint(),
		Provider:      provider,
		PricePerEpoch: 7,
		Epochs:        3,
	}
	nonce := uint64(0)
	txs := []*chain.Tx{ct.AnchorTx(clientKey, nonce)}
	nonce++
	// Three passing epochs → three payments.
	for e := 0; e < 3; e++ {
		txs = append(txs, ct.PaymentTx(clientKey, nonce))
		nonce++
	}
	b, err := c.NewBlock(c.HeadHash(), txs, time.Second, chain.Address{9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if bal := c.State().Balance(provider); bal != 21 {
		t.Errorf("provider balance = %d, want 21", bal)
	}
}

func TestSelectAsks(t *testing.T) {
	asks := []Ask{
		{Ref: ProviderRef{Node: 1}, PricePerEpoch: 9, FreeBytes: 1000},
		{Ref: ProviderRef{Node: 2}, PricePerEpoch: 3, FreeBytes: 1000},
		{Ref: ProviderRef{Node: 3}, PricePerEpoch: 3, FreeBytes: 10},
		{Ref: ProviderRef{Node: 4}, PricePerEpoch: 5, FreeBytes: 1000},
	}
	sel := SelectAsks(asks, 500, 2)
	if len(sel) != 2 || sel[0].Ref.Node != 2 || sel[1].Ref.Node != 4 {
		t.Errorf("selection = %+v", sel)
	}
	if len(SelectAsks(asks, 1<<40, 2)) != 0 {
		t.Error("capacity filter failed")
	}
}

func TestBitswapReciprocity(t *testing.T) {
	nw := simnet.New(1)
	server := NewBitswapNode(nw.AddNode())
	freerider := NewBitswapNode(nw.AddNode())
	good := NewBitswapNode(nw.AddNode())

	// Server holds blocks everyone wants; good peer also has blocks to give
	// back.
	var serverBlocks []cryptoutil.Hash
	for i := 0; i < 20; i++ {
		serverBlocks = append(serverBlocks, server.Put(mkData(int64(i), 400)))
	}
	var goodBlocks []cryptoutil.Hash
	for i := 100; i < 120; i++ {
		goodBlocks = append(goodBlocks, good.Put(mkData(int64(i), 400)))
	}

	// Freerider only takes. After grace + ratio, it gets refused.
	refusedAt := -1
	for i, id := range serverBlocks {
		i, id := i, id
		freerider.Want(server.Node().ID(), id, time.Minute, func(ok, refused bool) {
			if refused && refusedAt < 0 {
				refusedAt = i
			}
		})
	}
	nw.RunAll()
	if refusedAt < 0 {
		t.Fatal("freerider was never refused")
	}
	if server.Refusals == 0 {
		t.Error("refusals not counted")
	}

	// The good peer alternates: serve one to server, take one. Never refused.
	anyRefused := false
	for i := 0; i < 10; i++ {
		// Server pulls from good (credits good).
		server.Want(good.Node().ID(), goodBlocks[i], time.Minute, func(ok, refused bool) {})
		// Good pulls from server.
		good.Want(server.Node().ID(), serverBlocks[i], time.Minute, func(ok, refused bool) {
			if refused {
				anyRefused = true
			}
		})
		nw.RunAll()
	}
	if anyRefused {
		t.Error("reciprocating peer was refused")
	}
	if _, ok := good.blocks[serverBlocks[0]]; !ok {
		t.Error("fetched block not stored")
	}
	if server.DebtRatio(freerider.Node().ID()) <= server.DebtRatio(good.Node().ID()) {
		t.Error("freerider should carry more debt than the good peer")
	}
}

func TestBitswapNotFoundAndBadData(t *testing.T) {
	nw := simnet.New(2)
	a := NewBitswapNode(nw.AddNode())
	b := NewBitswapNode(nw.AddNode())
	var ok, refused bool
	a.Want(b.Node().ID(), cryptoutil.SumHash([]byte("missing")), time.Minute, func(o, r bool) { ok, refused = o, r })
	nw.RunAll()
	if ok || refused {
		t.Error("missing block should be a plain miss")
	}
}

// ID returns the contract's content-derived identifier.
func (ct *Contract) ID() cryptoutil.Hash { return cryptoutil.SumHash(ct.encode()) }

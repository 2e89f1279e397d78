package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
)

func TestCustodianRepairsAfterProviderDeath(t *testing.T) {
	nw, client, providers := storageWorld(t, 41, 6, 1<<30)
	data := mkData(42, 3000)
	var m *Manifest
	var pl *Placement
	client.Upload(data, 1024, refs(providers[:3]), 3, func(mm *Manifest, pp *Placement, err error) {
		if err != nil {
			t.Fatal(err)
		}
		m, pl = mm, pp
	})
	nw.RunAll()

	cu := NewCustodian(client, refs(providers), 30*time.Minute, 10*time.Second)
	cu.Manage(m, pl, nil)
	cu.Start()
	if cu.NumObjects() != 1 || len(cu.ManagedIDs()) != 1 {
		t.Fatal("management bookkeeping")
	}

	nw.After(45*time.Minute, func() { providers[0].Node().Crash() })
	nw.Run(3 * time.Hour)
	cu.Stop()
	nw.Run(nw.Now() + time.Hour)

	if cu.Epochs < 4 {
		t.Errorf("epochs = %d", cu.Epochs)
	}
	if cu.AuditFailures == 0 || cu.Repairs == 0 {
		t.Errorf("failures=%d repairs=%d; daemon did not react to the death", cu.AuditFailures, cu.Repairs)
	}
	if !cu.Healthy() {
		t.Error("object not restored to target redundancy")
	}
	mm, ppl := cu.Object(0)
	var got []byte
	client.Download(mm, ppl, func(d []byte, err error) {
		if err != nil {
			t.Errorf("download: %v", err)
		}
		got = d
	})
	nw.RunAll()
	if !bytes.Equal(got, data) {
		t.Error("data corrupted under management")
	}
}

func TestCustodianPaysOnlyProvers(t *testing.T) {
	nw := simnet.New(43)
	ownerKey, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		t.Fatal(err)
	}
	// Chain with a single miner to absorb payments.
	spacing := 10 * time.Second
	ccfg := chain.Config{
		InitialDifficulty: 1 << 10,
		TargetSpacing:     spacing,
		Subsidy:           50,
		GenesisAlloc:      map[chain.Address]uint64{ownerKey.Fingerprint(): 10_000},
	}
	miner := chain.NewMiner(nw.AddNode(), chain.NewChain(ccfg), cryptoutil.SumHash([]byte("m")),
		float64(ccfg.InitialDifficulty)/spacing.Seconds())
	miner.Start()

	client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	honest := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 30})
	cheat := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 30, Cheat: DropAfterAck})

	data := mkData(44, 1500)
	var m *Manifest
	var pl *Placement
	client.Upload(data, 0, []ProviderRef{honest.Ref(), cheat.Ref()}, 2,
		func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.Run(nw.Now() + time.Minute)

	honestAddr := cryptoutil.SumHash([]byte("honest-payout"))
	cheatAddr := cryptoutil.SumHash([]byte("cheat-payout"))
	contracts := map[ProviderRef]*Contract{
		honest.Ref(): {Client: ownerKey.Fingerprint(), Provider: honestAddr, PricePerEpoch: 3, Epochs: 10},
		cheat.Ref():  {Client: ownerKey.Fingerprint(), Provider: cheatAddr, PricePerEpoch: 3, Epochs: 10},
	}
	cu := NewCustodian(client, []ProviderRef{honest.Ref(), cheat.Ref()}, 30*time.Minute, 10*time.Second)
	cu.AttachWallet(chain.NewWallet(ownerKey, 0), miner.SubmitTx)
	cu.Manage(m, pl, contracts)
	cu.Start()
	nw.Run(2 * time.Hour)
	cu.Stop()
	miner.Stop()
	nw.RunAll()

	st := miner.Chain().State()
	if st.Balance(honestAddr) == 0 {
		t.Error("honest provider unpaid")
	}
	if st.Balance(cheatAddr) != 0 {
		t.Errorf("cheating provider got paid %d", st.Balance(cheatAddr))
	}
	if cu.PaymentsSent == 0 {
		t.Error("no payments sent")
	}
}

// TestCustodianPaymentsDeterministic: every epoch the custodian pays each
// proving holder from one wallet, drawing a nonce per payment, so the
// order it visits its contracts decides which provider gets which nonce
// and thereby every transaction and block hash. The same seed must give
// the same chain head on every run.
func TestCustodianPaymentsDeterministic(t *testing.T) {
	run := func() cryptoutil.Hash {
		nw := simnet.New(47)
		ownerKey, err := cryptoutil.GenerateKeyPair(nw.Rand())
		if err != nil {
			t.Fatal(err)
		}
		spacing := 10 * time.Second
		ccfg := chain.Config{
			InitialDifficulty: 1 << 10,
			TargetSpacing:     spacing,
			Subsidy:           50,
			GenesisAlloc:      map[chain.Address]uint64{ownerKey.Fingerprint(): 10_000},
		}
		miner := chain.NewMiner(nw.AddNode(), chain.NewChain(ccfg), cryptoutil.SumHash([]byte("m")),
			float64(ccfg.InitialDifficulty)/spacing.Seconds())
		miner.Start()
		client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
		providers := make([]*Provider, 4)
		contracts := map[ProviderRef]*Contract{}
		for i := range providers {
			providers[i] = NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 30})
			contracts[providers[i].Ref()] = &Contract{
				Client: ownerKey.Fingerprint(), Provider: cryptoutil.SumHash([]byte{byte(i)}),
				PricePerEpoch: 3, Epochs: 10,
			}
		}
		var m *Manifest
		var pl *Placement
		client.Upload(mkData(48, 1500), 0, refs(providers), len(providers),
			func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
		nw.Run(nw.Now() + time.Minute)

		cu := NewCustodian(client, refs(providers), 30*time.Minute, 10*time.Second)
		cu.AttachWallet(chain.NewWallet(ownerKey, 0), miner.SubmitTx)
		cu.Manage(m, pl, contracts)
		cu.Start()
		nw.Run(2 * time.Hour)
		cu.Stop()
		miner.Stop()
		nw.RunAll()
		if cu.PaymentsSent < 3 {
			t.Fatalf("%d payments sent, want at least 3", cu.PaymentsSent)
		}
		return miner.Chain().HeadHash()
	}
	want := run()
	for i := 1; i < 8; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d ended on head %x, run 0 on %x: payment order depends on map iteration", i, got[:8], want[:8])
		}
	}
}

func TestCustodianStartStopIdempotent(t *testing.T) {
	nw, client, providers := storageWorld(t, 45, 2, 1<<30)
	cu := NewCustodian(client, refs(providers), time.Hour, time.Second)
	cu.Start()
	cu.Start() // no double loop
	cu.Stop()
	nw.Run(5 * time.Hour)
	if cu.Epochs != 0 {
		t.Errorf("stopped custodian ran %d epochs", cu.Epochs)
	}
	if !cu.Healthy() {
		t.Error("empty custodian should be healthy")
	}
}

package chain

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// Conformance: the chain subsystem is driven through the canonical fault
// battery (internal/simnet/fault) and must recover once faults clear. The
// invariants:
//
//   - Reconvergence: after the recovery window every miner reports the same
//     head hash — partitions fork the chain, heals must reorg it back.
//   - Liveness: the chain keeps growing despite the faults.
//   - No panics on garbage: corrupt-10pct delivers unparseable payloads to
//     every handler.
func TestChainRecoveryConformance(t *testing.T) {
	const (
		seed    = 401
		nMiners = 5
		horizon = 30 * time.Minute
	)
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			nw := simnet.New(seed)
			miners := buildMiners(t, nw, nMiners, 100, minerCfg())
			eligible := make([]simnet.NodeID, nMiners)
			for i, m := range miners {
				eligible[i] = m.Node().ID()
			}
			sc.Build(seed, eligible, horizon).ApplyAt(nw, 0)
			for _, m := range miners {
				m.Start()
			}
			// Run through the fault window and the fault-free tail, then an
			// extra convergence margin so the last blocks propagate.
			nw.Run(horizon + 5*time.Minute)
			for _, m := range miners {
				m.Stop()
			}
			nw.RunAll()

			head := miners[0].Chain().HeadHash()
			for i, m := range miners {
				if got := m.Chain().HeadHash(); got != head {
					t.Errorf("miner %d head %s != miner 0 head %s: chain did not reconverge",
						i, got.Short(), head.Short())
				}
			}
			if h := miners[0].Chain().Height(); h < 30 {
				t.Errorf("height %d after %v; chain stalled under %s", h, horizon, sc.Name)
			}
		})
	}
}

// The stale-nonce wedge: payments are submitted to one miner and reach the
// other seven by relay, over links slow enough that a relayed copy often
// lands after the block that mined it. Such a copy must not be admitted —
// its spent nonce would sit at the head of the sender's queue and block
// every later payment of that sender on that miner — and a payment a reorg
// un-mines must come back. At quiescence every payment is on every best
// chain and every pool is empty.
func TestLateRelayDoesNotWedgeSender(t *testing.T) {
	const (
		nMiners  = 8
		nWallets = 8
		nPay     = 400
		interval = 250 * time.Millisecond
	)
	for _, seed := range []int64{1, 2, 3} {
		nw := simnet.New(seed)
		// 80–100 ms per hop against ~1.3 s between blocks, nothing lost.
		nw.SetDefaultProfile(simnet.LinkProfile{Latency: 40 * time.Millisecond, Jitter: 20 * time.Millisecond})
		cfg := minerCfg()
		cfg.GenesisAlloc = map[Address]uint64{}
		wallets := make([]*Wallet, nWallets)
		for i := range wallets {
			kp := testKey(t, 100*seed+int64(i))
			wallets[i] = NewWallet(kp, 0)
			cfg.GenesisAlloc[kp.Fingerprint()] = 1 << 30
		}
		miners := buildMiners(t, nw, nMiners, 100, cfg)
		for _, m := range miners {
			m.Start()
		}
		txs := make([]*Tx, nPay)
		for k := range txs {
			txs[k] = wallets[k%nWallets].Pay(wallets[(k+1)%nWallets].Address(), 1, 1)
			nw.After(time.Duration(k)*interval, func() { miners[0].SubmitTx(txs[k]) })
		}
		nw.Run(nPay*interval + time.Minute)
		for _, m := range miners {
			m.Stop()
		}
		nw.RunAll()

		for i, m := range miners {
			onChain := map[*Tx]bool{}
			for _, b := range m.Chain().BestBlocks() {
				for _, tx := range b.Txs {
					onChain[tx] = true
				}
			}
			missing := 0
			for _, tx := range txs {
				if !onChain[tx] {
					missing++
				}
			}
			if missing > 0 || len(m.Pool().ids) > 0 {
				t.Errorf("seed %d miner %d: %d of %d payments not on its best chain, %d left in its pool",
					seed, i, missing, nPay, len(m.Pool().ids))
			}
		}
	}
}

// A two-block side branch overtakes a one-block head: the payment of the
// abandoned block is back in the pool, and the payments of both adopted
// blocks — not only the new tip's — are out of it.
func TestReorgReturnsUnminedTxs(t *testing.T) {
	kpA, kpB := testKey(t, 1), testKey(t, 2)
	cfg := minerCfg()
	cfg.GenesisAlloc = map[Address]uint64{kpA.Fingerprint(): 100, kpB.Fingerprint(): 100}
	nw := simnet.New(1)
	m := NewMiner(nw.AddNode(), NewChain(cfg), Address{0x4D}, 0)
	a0 := NewWallet(kpA, 0).Pay(Address{9}, 1, 1)
	wB := NewWallet(kpB, 0)
	b0, b1 := wB.Pay(Address{9}, 1, 1), wB.Pay(Address{9}, 1, 1)
	for _, tx := range []*Tx{a0, b0, b1} {
		m.SubmitTx(tx)
	}

	c := m.Chain()
	mine := func(parent cryptoutil.Hash, tx *Tx, miner Address) *Block {
		t.Helper()
		b, err := c.NewBlock(parent, []*Tx{tx}, time.Second, miner)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	abandoned := mine(c.genesis, a0, Address{1})
	if pending(m.Pool(), a0.ID()) || len(m.Pool().ids) != 2 {
		t.Fatalf("after the first block: a0 pooled %v, pool holds %d, want false and 2", pending(m.Pool(), a0.ID()), len(m.Pool().ids))
	}
	side := mine(c.genesis, b0, Address{2})
	if c.HeadHash() != abandoned.Hash() {
		t.Fatal("an equal-work side block displaced the head")
	}
	tip := mine(side.Hash(), b1, Address{2})
	if c.HeadHash() != tip.Hash() {
		t.Fatal("the heavier side branch did not become the head")
	}
	if !pending(m.Pool(), a0.ID()) {
		t.Error("the abandoned block's payment did not return to the pool")
	}
	if pending(m.Pool(), b0.ID()) || pending(m.Pool(), b1.ID()) {
		t.Errorf("adopted payments still pooled: b0 %v, b1 %v", pending(m.Pool(), b0.ID()), pending(m.Pool(), b1.ID()))
	}
}

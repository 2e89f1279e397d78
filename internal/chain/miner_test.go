package chain

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// buildMiners creates n fully meshed miners with individual chain replicas.
func buildMiners(t testing.TB, nw *simnet.Network, n int, hashrate float64, cfg Config) []*Miner {
	t.Helper()
	miners := make([]*Miner, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		ids[i] = node.ID()
		addr := cryptoutil.SumHash([]byte{byte(i), 0xAB})
		miners[i] = NewMiner(node, NewChain(cfg), addr, hashrate)
	}
	for i, m := range miners {
		peers := make([]simnet.NodeID, 0, n-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	return miners
}

func minerCfg() Config {
	return Config{
		InitialDifficulty: 1 << 10,
		TargetSpacing:     10 * time.Second,
		RetargetInterval:  0, // fixed difficulty keeps the test arithmetic simple
		Subsidy:           50,
	}
}

func TestMinersConverge(t *testing.T) {
	nw := simnet.New(11)
	miners := buildMiners(t, nw, 5, 100, minerCfg()) // mean block time ~10s across the network
	for _, m := range miners {
		m.Start()
	}
	nw.Run(10 * time.Minute)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	head := miners[0].Chain().HeadHash()
	for i, m := range miners {
		if m.Chain().HeadHash() != head {
			t.Errorf("miner %d head %s != %s", i, m.Chain().HeadHash().Short(), head.Short())
		}
	}
	h := miners[0].Chain().Height()
	if h < 20 {
		t.Errorf("only %d blocks in 10 min; expected ≥20", h)
	}
	// Every miner should have found at least one block with equal hashrate.
	total := 0
	for _, m := range miners {
		total += m.BlocksFound()
	}
	if total < int(h) {
		t.Errorf("found %d blocks but height is %d", total, h)
	}
}

func TestTxPropagationAndInclusion(t *testing.T) {
	kp := testKey(t, 1)
	cfg := minerCfg()
	cfg.GenesisAlloc = map[Address]uint64{kp.Fingerprint(): 1000}
	nw := simnet.New(12)
	miners := buildMiners(t, nw, 3, 100, cfg)
	for _, m := range miners {
		m.Start()
	}
	tx := &Tx{To: Address{5}, Amount: 40, Fee: 2, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	nw.After(time.Second, func() { miners[0].SubmitTx(tx) })
	nw.Run(5 * time.Minute)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	for i, m := range miners {
		got, _ := m.Chain().FindTx(tx.ID())
		if got == nil {
			t.Errorf("miner %d: tx not on chain", i)
		}
		if bal := m.Chain().State().Balance(Address{5}); bal != 40 {
			t.Errorf("miner %d: recipient balance %d, want 40", i, bal)
		}
	}
}

func TestPartitionForksThenHealsWithReorg(t *testing.T) {
	nw := simnet.New(13)
	miners := buildMiners(t, nw, 4, 100, minerCfg())
	for _, m := range miners {
		m.Start()
	}
	ids := func(ms []*Miner) []simnet.NodeID {
		out := make([]simnet.NodeID, len(ms))
		for i, m := range ms {
			out[i] = m.Node().ID()
		}
		return out
	}
	// Partition 3 vs 1: the majority side accumulates more work.
	nw.After(time.Minute, func() {
		nw.Partition(ids(miners[:3]), ids(miners[3:]))
	})
	nw.After(10*time.Minute, func() {
		nw.Heal()
		// Nudge resync: the lone miner learns the majority branch when the
		// next block floods; force one by continuing to run.
	})
	nw.Run(20 * time.Minute)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	head := miners[0].Chain().HeadHash()
	for i, m := range miners {
		if m.Chain().HeadHash() != head {
			t.Fatalf("miner %d did not converge after heal", i)
		}
	}
	if miners[3].Chain().Reorgs() == 0 {
		t.Error("minority miner should have reorged onto the majority branch")
	}
}

func TestCrashedMinerCatchesUpViaOrphanFetch(t *testing.T) {
	nw := simnet.New(14)
	miners := buildMiners(t, nw, 3, 100, minerCfg())
	for _, m := range miners {
		m.Start()
	}
	lagging := miners[2]
	nw.After(time.Minute, func() { lagging.Node().Crash() })
	nw.After(10*time.Minute, func() { lagging.Node().Restart() })
	nw.Run(25 * time.Minute)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	if lagging.Chain().HeadHash() != miners[0].Chain().HeadHash() {
		t.Errorf("restarted miner did not catch up: height %d vs %d",
			lagging.Chain().Height(), miners[0].Chain().Height())
	}
}

// TestFiftyOnePercentAttack mines a private branch with majority hashrate
// and checks it overtakes the honest chain — the §3.1 "51 % attack".
func TestFiftyOnePercentAttack(t *testing.T) {
	nw := simnet.New(15)
	cfg := minerCfg()
	ms := buildMiners(t, nw, 2, 0, cfg)
	honest, attacker := ms[0], ms[1]
	honest.hashrate = 100
	attacker.hashrate = 300 // 75 % of total power
	attacker.SetWithhold(true)

	fork := attacker.Chain().HeadHash() // fork from genesis
	attacker.SetMiningTarget(fork)
	honest.Start()
	attacker.Start()
	nw.Run(10 * time.Minute)
	honest.Stop()
	attacker.Stop()
	nw.RunAll()

	privLen := len(attacker.Withheld())
	honestLen := int(honest.Chain().Height())
	if privLen <= honestLen {
		t.Fatalf("attacker with 75%% power should outpace honest chain: %d vs %d", privLen, honestLen)
	}
	// Release: honest node must reorg onto the attacker branch.
	attacker.Release()
	nw.RunAll()
	if honest.Chain().Reorgs() == 0 {
		t.Error("honest miner never reorged")
	}
	attackerTip := attacker.Withheld() // cleared by Release
	if len(attackerTip) != 0 {
		t.Error("withheld list should clear after release")
	}
	if honest.Chain().Height() < uint64(privLen) {
		t.Errorf("honest head height %d < attacker branch %d", honest.Chain().Height(), privLen)
	}
}

func TestMinerStopCancelsMining(t *testing.T) {
	nw := simnet.New(16)
	ms := buildMiners(t, nw, 1, 1000, minerCfg())
	ms[0].Start()
	nw.Run(time.Minute)
	found := ms[0].BlocksFound()
	if found == 0 {
		t.Fatal("no blocks found before stop")
	}
	ms[0].Stop()
	nw.Run(10 * time.Minute)
	if ms[0].BlocksFound() != found {
		t.Error("miner kept finding blocks after Stop")
	}
}

func TestMinerZeroHashrateInert(t *testing.T) {
	nw := simnet.New(17)
	ms := buildMiners(t, nw, 1, 0, minerCfg())
	ms[0].Start()
	nw.Run(time.Minute)
	if ms[0].BlocksFound() != 0 {
		t.Error("zero-hashrate miner found blocks")
	}
}

func TestWorkExpendedGrows(t *testing.T) {
	nw := simnet.New(18)
	ms := buildMiners(t, nw, 1, 1000, minerCfg())
	ms[0].Start()
	nw.Run(5 * time.Minute)
	ms[0].Stop()
	nw.RunAll()
	work := ms[0].Chain().WorkExpended()
	wantMin := int64(1 << 10) // at least one block's difficulty
	if work.Int64() < wantMin {
		t.Errorf("work expended = %v", work)
	}
	if ms[0].Chain().TotalBytes() == 0 {
		t.Error("ledger bytes not growing")
	}
}

// BenchmarkBlockGrind builds and seals a block at two difficulties 2²⁰
// apart; the host cost is flat in difficulty, which is charged in virtual
// time.
func BenchmarkBlockGrind(b *testing.B) {
	for _, d := range []uint64{1 << 10, 1 << 30} {
		b.Run(fmt.Sprintf("d=2^%d", bits.Len64(d)-1), func(b *testing.B) {
			c := NewChain(Config{InitialDifficulty: d})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.NewBlock(c.HeadHash(), nil, time.Duration(i), Address{1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChainValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	kp, _ := cryptoutil.GenerateKeyPair(rng)
	c := NewChain(Config{InitialDifficulty: 16, GenesisAlloc: map[Address]uint64{kp.Fingerprint(): 1 << 40}})
	var txs []*Tx
	for i := 0; i < 100; i++ {
		tx := &Tx{To: Address{9}, Amount: 1, Nonce: uint64(i), Kind: KindPayment}
		tx.Sign(kp)
		txs = append(txs, tx)
	}
	blk, err := c.NewBlock(c.HeadHash(), txs, time.Second, Address{1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]cryptoutil.Hash, len(blk.Txs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tx := range blk.Txs {
			ids[j] = tx.ID()
		}
		if err := c.validate(blk, ids); err != nil {
			b.Fatal(err)
		}
	}
}

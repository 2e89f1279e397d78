package experiments

import (
	"fmt"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// ledgerSize sizes X13: hourly checkpoints taken, and the transaction
// load per block. ledgerSizes is full scale, then tiny.
type ledgerSize struct{ hours, txPerBlock int }

var ledgerSizes = [2]ledgerSize{{6, 20}, {2, 5}}

// ledgerTable renders X13 with the ledger and header sizes as byte counts.
func ledgerTable(env Env, s ledgerSize) *Table {
	m := ledgerMatrix(env, s)
	t := &Table{Headers: append([]string{"Elapsed"}, m.Cols...)}
	for r, v := range m.Vals {
		t.Add(m.Rows[r], fmt.Sprintf("%.0f", v[0]), byteCount(int64(v[1])), byteCount(int64(v[2])), fmt.Sprintf("%.0f", v[3]))
	}
	return t
}

// ledgerMatrix is experiment X13: it quantifies §3.1's "endless ledger
// problem" and the two mitigations this repository implements. A chain
// runs under a steady transaction load; at hourly checkpoints we record
// the block height, the full ledger size, the footprint of an SPV light
// client following the same chain (headers only), and the full node's
// retained state count with checkpoint compaction. The ledger grows
// without bound; the mitigations stay (nearly) flat.
func ledgerMatrix(env Env, s ledgerSize) Matrix {
	m := Matrix{Cols: []string{"Blocks", "Full Ledger", "SPV Client (headers)", "States Held (compact=100)"}}
	nw := env.Net()
	kp, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		panic(err)
	}
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 10,
		GenesisAlloc:      map[chain.Address]uint64{kp.Fingerprint(): 1 << 50},
	}
	miner := chain.NewMiner(nw.AddNode(), chain.NewChain(cfg), cryptoutil.SumHash([]byte("m")),
		float64(cfg.InitialDifficulty)/spacing.Seconds())
	light := chain.NewHeaderChain(cfg)
	wallet := chain.NewWallet(kp, 0)
	miner.Start()

	// Steady tx load: refill the mempool on every new block.
	miner.Chain().OnHead(func(b *chain.Block) {
		for i := 0; i < s.txPerBlock; i++ {
			miner.Pool().Add(wallet.Pay(chain.Address{byte(i)}, 1, 1))
		}
	})

	checkEvery := time.Hour
	for h := 1; h <= s.hours; h++ {
		nw.Run(time.Duration(h) * checkEvery)
		c := miner.Chain()
		light.Sync(c)
		c.Compact(100)
		m.add(fmt.Sprintf("%dh", h), float64(c.Height()), float64(c.TotalBytes()), float64(light.HeaderBytes()), float64(c.StatesHeld()))
	}
	miner.Stop()
	return m
}

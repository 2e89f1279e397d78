package chain

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// benchWallets funds n wallets and returns them with the genesis allocation.
func benchWallets(b *testing.B, n int) ([]*Wallet, map[Address]uint64) {
	b.Helper()
	wallets := make([]*Wallet, n)
	alloc := map[Address]uint64{}
	for i := range wallets {
		kp := testKey(b, int64(900+i))
		wallets[i] = NewWallet(kp, 0)
		alloc[kp.Fingerprint()] = 1 << 40
	}
	return wallets, alloc
}

// BenchmarkCheckSig is the signature check on a payment not signed in this
// process (the ed25519 verification, on every call) and on one Sign made
// with a sound key (one SHA-256 over its encoding).
func BenchmarkCheckSig(b *testing.B) {
	wallets, _ := benchWallets(b, 1)
	tx := wallets[0].Pay(Address{9}, 10, 1)
	b.Run("cold", func(b *testing.B) {
		cold := *tx
		cold.verified = cryptoutil.Hash{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cold.CheckSig(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tx.CheckSig(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelect assembles a block template of up to 200 payments from
// eight senders' verified payments: a pool the size one block interval
// fills at the benchmark's submission rate, and a backlog of ten blocks.
func BenchmarkSelect(b *testing.B) {
	for _, size := range []int{8, 2000} {
		b.Run(fmt.Sprintf("pool=%d", size), func(b *testing.B) {
			wallets, alloc := benchWallets(b, 8)
			st := NewState(alloc)
			pool := NewMempool()
			for i := 0; i < size; i++ {
				pool.Add(wallets[i%len(wallets)].Pay(wallets[(i+1)%len(wallets)].Address(), 1, uint64(1+i%3)))
			}
			want := size
			if want > 200 {
				want = 200
			}
			pool.Select(st, 200) // a pool that has been selected from before
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(pool.Select(st, 200)); got != want {
					b.Fatalf("selected %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkAddBlock validates and connects a block of 200 payments signed
// in this process, so that each signature check is the memo's: proof of
// work, Merkle root, and each payment applied to a copy of the parent
// state.
func BenchmarkAddBlock(b *testing.B) {
	const perBlock = 200
	wallets, alloc := benchWallets(b, 8)
	cfg := Config{InitialDifficulty: 1, MaxTxsPerBlock: perBlock, GenesisAlloc: alloc}
	txs := make([]*Tx, perBlock)
	for i := range txs {
		txs[i] = wallets[i%len(wallets)].Pay(wallets[(i+1)%len(wallets)].Address(), 1, 1)
	}
	c := NewChain(cfg)
	blk, err := c.NewBlock(c.genesis, txs, time.Second, Address{0x4D})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.AddBlock(blk); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A sibling on genesis: the same payments under another timestamp.
		sib := *blk
		sib.Header.Time += int64(i + 1)
		if err := c.AddBlock(&sib); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perBlock, "ns/tx")
}

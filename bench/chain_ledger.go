package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// chain_ledger: proof-of-work miners confirming pre-signed payments on the
// default engine. Payments arrive at a steady virtual rate; the op is one
// transaction confirmed on every miner's best chain.

const (
	ledgerMiners  = 8
	ledgerWallets = 8
	ledgerSpacing = 10 * time.Second
	ledgerBlockTx = 200
	// ledgerTxPerSecond sizes the measured op list: transactions per
	// budgeted second.
	ledgerTxPerSecond = 1050.0
	ledgerWarmShare   = 0.22
	// ledgerInterval is the virtual time between submissions. At one payment
	// every two seconds a block holds five, far below its cap: a run then
	// spans some 2,000 blocks, and it is the number of blocks that steadies
	// the simulated statistics from seed to seed — confirmation latency is
	// the wait for the next block, and msgs_per_op is blocks per payment.
	ledgerInterval   = 2 * time.Second
	ledgerDifficulty = 1 << 10
	// ledgerDrainLimit bounds the wait for the last transactions to confirm.
	ledgerDrainLimit = 30 * time.Minute
)

var chainLedgerWorkload = workloadDef{
	name:  "chain_ledger",
	why:   "bound by ed25519, SHA-256 and allocation, not by simulation, at a message rate 30x below any other workload: signature and tx-hash memoisation shows here only; engine changes should not move it",
	build: buildChainLedger,
}

type ledgerSim struct {
	nw      *simnet.Network
	st      *opStats
	miners  []*chain.Miner
	wallets []*chain.Wallet
	rng     *rand.Rand
	// txs is the current phase's pre-signed op list; opOf finds a
	// transaction's op id when a block carrying it becomes a head (blocks
	// pass between miners by reference, so the pointer identifies it).
	txs  []*chain.Tx
	opOf map[*chain.Tx]int
	// onChain[k] is how many miners have tx k on their best chain; heads[m]
	// is miner m's head as last seen, for spotting reorgs.
	onChain  []int8
	heads    []cryptoutil.Hash
	next     int
	base     time.Duration
	presignS float64
	// bytes0 is miner 0's ledger size when the measured phase started.
	bytes0    int64
	submitted []time.Duration
}

func buildChainLedger(c runConfig, st *opStats, tr *tracer) sim {
	s := &ledgerSim{
		nw:    simnet.New(c.seed),
		st:    st,
		rng:   rand.New(rand.NewSource(c.seed)),
		heads: make([]cryptoutil.Hash, ledgerMiners),
	}
	alloc := map[chain.Address]uint64{}
	for i := 0; i < ledgerWallets; i++ {
		kp, err := cryptoutil.GenerateKeyPair(s.rng)
		if err != nil {
			panic(err) // a math/rand reader cannot fail
		}
		s.wallets = append(s.wallets, chain.NewWallet(kp, 0))
		alloc[kp.Fingerprint()] = 1 << 40
	}
	cfg := chain.Config{
		InitialDifficulty: ledgerDifficulty,
		TargetSpacing:     ledgerSpacing,
		MaxTxsPerBlock:    ledgerBlockTx,
		GenesisAlloc:      alloc,
	}
	hashrate := float64(ledgerDifficulty) / ledgerSpacing.Seconds() / ledgerMiners
	ids := make([]simnet.NodeID, ledgerMiners)
	tr.do("simnet.AddNode+chain.NewMiner", ledgerMiners, func() {
		for i := 0; i < ledgerMiners; i++ {
			node := s.nw.AddNode()
			ids[i] = node.ID()
			m := chain.NewMiner(node, chain.NewChain(cfg), cryptoutil.SumHash([]byte{byte(i), 0x4D}), hashrate)
			s.heads[i] = m.Chain().HeadHash()
			idx := i
			m.Chain().OnHead(func(b *chain.Block) { s.onHead(idx, b) })
			s.miners = append(s.miners, m)
		}
	})
	for i, m := range s.miners {
		peers := append(append([]simnet.NodeID(nil), ids[:i]...), ids[i+1:]...)
		m.SetPeers(peers)
	}
	measured := c.quota(ledgerTxPerSecond, 2*ledgerWallets)
	warm := int(float64(measured)*ledgerWarmShare + 0.5)
	// Both phases are signed up front: signing is set-up, not the ledger.
	t0 := time.Now()
	var all []*chain.Tx
	tr.do("chain.Wallet.Pay", warm+measured, func() { all = s.presign(warm + measured) })
	s.presignS = time.Since(t0).Seconds()

	for _, m := range s.miners {
		m.Start()
	}
	s.load(all[:warm])
	st.reset(s.ops())
	s.launch()
	tr.do("simnet.Run", 1, func() { s.drain() })
	s.load(all[warm:])
	return s
}

// presign builds n payments, round-robin over the wallets so that every
// sender's nonces are submitted in order.
func (s *ledgerSim) presign(n int) []*chain.Tx {
	txs := make([]*chain.Tx, n)
	for i := range txs {
		w := s.wallets[i%ledgerWallets]
		to := s.wallets[s.rng.Intn(ledgerWallets)].Address()
		txs[i] = w.Pay(to, 1+uint64(s.rng.Intn(100)), 1)
	}
	return txs
}

// load installs the op list of the next phase.
func (s *ledgerSim) load(txs []*chain.Tx) {
	s.txs = txs
	s.opOf = make(map[*chain.Tx]int, len(txs))
	for i, tx := range txs {
		s.opOf[tx] = i
	}
	s.onChain = make([]int8, len(txs))
	s.submitted = make([]time.Duration, len(txs))
	s.next = 0
}

// onHead keeps onChain current as miner m's best chain moves to b: blocks
// that left the best chain give their transactions back, blocks that joined
// it confirm theirs. An op resolves when the last miner confirms it.
func (s *ledgerSim) onHead(m int, b *chain.Block) {
	c := s.miners[m].Chain()
	old, cur := c.Block(s.heads[m]), b
	s.heads[m] = b.Hash()
	var joined []*chain.Block
	for old.Hash() != cur.Hash() {
		if old.Header.Height >= cur.Header.Height {
			s.count(old, -1)
			old = c.Block(old.Header.Prev)
		} else {
			joined = append(joined, cur)
			cur = c.Block(cur.Header.Prev)
		}
	}
	for i := len(joined) - 1; i >= 0; i-- {
		s.count(joined[i], +1)
	}
}

func (s *ledgerSim) count(b *chain.Block, d int8) {
	now := s.nw.Now()
	for _, tx := range b.Txs {
		k, ok := s.opOf[tx]
		if !ok {
			continue // coinbase, or a transaction of an earlier phase
		}
		if s.onChain[k] += d; s.onChain[k] == ledgerMiners && !s.st.resolvedOp(k) {
			s.st.resolve(k, true, now-s.submitted[k])
		}
	}
}

func (s *ledgerSim) net() *simnet.Network { return s.nw }
func (s *ledgerSim) nodes() int           { return ledgerMiners }
func (s *ledgerSim) ops() int             { return len(s.txs) }

func (s *ledgerSim) launch() {
	s.base = s.nw.Now()
	s.bytes0 = s.miners[0].Chain().TotalBytes()
	s.nw.ScheduleCall(s.base, ledgerNextTx, s)
}

// ledgerNextTx hands the payment that is due to every miner's pool and
// schedules itself for the next one. Not SubmitTx to one miner: a relayed
// copy that lands after the block that mined it re-enters the pool, and its
// stale nonce then blocks that sender on that miner for good (README).
func ledgerNextTx(arg any) {
	s := arg.(*ledgerSim)
	k := s.next
	s.submitted[k] = s.nw.Now()
	for _, m := range s.miners {
		m.Pool().Add(s.txs[k])
	}
	if s.next++; s.next < len(s.txs) {
		s.nw.ScheduleCall(s.base+time.Duration(s.next)*ledgerInterval, ledgerNextTx, s)
	}
}

func (s *ledgerSim) span() time.Duration { return time.Duration(len(s.txs)) * ledgerInterval }

func (s *ledgerSim) advance(frac float64) {
	if frac < 1 {
		s.nw.Run(s.base + time.Duration(frac*float64(s.span())))
		return
	}
	s.drain()
}

// drain runs until every submitted transaction is confirmed everywhere. A
// transaction still unconfirmed at the limit has failed.
func (s *ledgerSim) drain() {
	s.nw.Run(s.base + s.span())
	limit := s.nw.Now() + ledgerDrainLimit
	for s.st.resolved < s.st.attempted && s.nw.Now() < limit {
		s.nw.Run(s.nw.Now() + ledgerSpacing)
	}
	for k := range s.txs {
		if !s.st.resolvedOp(k) {
			s.st.resolve(k, false, s.nw.Now()-s.submitted[k])
		}
	}
}

func (s *ledgerSim) check() error {
	if s.st.ok != s.st.attempted {
		return fmt.Errorf("chain_ledger: %d of %d payments confirmed on every miner", s.st.ok, s.st.attempted)
	}
	// Stop mining and let the last blocks land: the ledger must then be one
	// chain, holding every payment, with nothing left on the wire.
	for _, m := range s.miners {
		m.Stop()
	}
	s.nw.RunAll()
	head := s.miners[0].Chain().HeadHash()
	for i, m := range s.miners {
		if m.Chain().HeadHash() != head {
			return fmt.Errorf("chain_ledger: miner %d is on head %s, miner 0 on %s", i, m.Chain().HeadHash().Short(), head.Short())
		}
	}
	for k, n := range s.onChain {
		if n != ledgerMiners {
			return fmt.Errorf("chain_ledger: payment %d is on %d of %d best chains", k, n, ledgerMiners)
		}
	}
	return conserved(s.nw, 0)
}

func (s *ledgerSim) layer(m metricSet, r *result, fix metricSet) {
	m["chain.presign_s"] = s.presignS
	m["chain.bytes_per_tx"] = float64(s.miners[0].Chain().TotalBytes()-s.bytes0) / float64(len(s.txs))
}

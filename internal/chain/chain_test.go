package chain

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

func testKey(t testing.TB, seed int64) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func testChain(t testing.TB, alloc map[Address]uint64) *Chain {
	t.Helper()
	return NewChain(Config{
		InitialDifficulty: 16,
		Subsidy:           50,
		GenesisAlloc:      alloc,
	})
}

// extend mines a block of txs on the chain's current head.
func extend(t testing.TB, c *Chain, txs []*Tx, miner Address) *Block {
	t.Helper()
	ts := time.Duration(c.Head().Header.Time) + 10*time.Second
	b, err := c.NewBlock(c.HeadHash(), txs, ts, miner)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTxSignAndVerify(t *testing.T) {
	kp := testKey(t, 1)
	to := testKey(t, 2).Fingerprint()
	tx := &Tx{To: to, Amount: 10, Fee: 1, Kind: KindPayment}
	tx.Sign(kp)
	if err := tx.CheckSig(); err != nil {
		t.Fatal(err)
	}
	tx.Amount = 11
	if err := tx.CheckSig(); err == nil {
		t.Error("tampered tx passed signature check")
	}
}

func TestTxWrongKeyRejected(t *testing.T) {
	kp, other := testKey(t, 1), testKey(t, 2)
	tx := &Tx{Amount: 1, Kind: KindPayment}
	tx.Sign(kp)
	tx.FromPub = other.Public
	if err := tx.CheckSig(); err == nil {
		t.Error("public key not matching address accepted")
	}
}

func TestTxIDDependsOnPayload(t *testing.T) {
	kp := testKey(t, 1)
	a := &Tx{Kind: KindAnchor, Payload: []byte("x")}
	a.Sign(kp)
	b := &Tx{Kind: KindAnchor, Payload: []byte("y")}
	b.Sign(kp)
	if a.ID() == b.ID() {
		t.Error("distinct payloads produced equal tx IDs")
	}
	if a.WireSize() <= 0 {
		t.Error("wire size should be positive")
	}
}

func TestCoinbaseUniquePerHeight(t *testing.T) {
	a := NewCoinbase(Address{1}, 50, 1)
	b := NewCoinbase(Address{1}, 50, 2)
	if a.ID() == b.ID() {
		t.Error("coinbases at different heights must differ")
	}
	if !a.IsCoinbase() {
		t.Error("coinbase not recognized")
	}
	if err := a.CheckSig(); err != nil {
		t.Errorf("coinbase should pass CheckSig: %v", err)
	}
}

func TestStateApplyAndErrors(t *testing.T) {
	kp := testKey(t, 1)
	addr := kp.Fingerprint()
	to := testKey(t, 2).Fingerprint()
	st := NewState(map[Address]uint64{addr: 100})

	tx := &Tx{To: to, Amount: 60, Fee: 5, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	if err := st.applyTx(tx, tx.ID()); err != nil {
		t.Fatal(err)
	}
	if st.Balance(addr) != 35 || st.Balance(to) != 60 || st.Nonce(addr) != 1 {
		t.Errorf("state after apply: %+v", st)
	}

	// Replay (same nonce) must fail.
	if err := st.applyTx(tx, tx.ID()); err == nil {
		t.Error("replayed tx accepted")
	}
	// Overdraft must fail.
	big := &Tx{To: to, Amount: 1000, Nonce: 1, Kind: KindPayment}
	big.Sign(kp)
	if err := st.applyTx(big, big.ID()); err == nil {
		t.Error("overdraft accepted")
	}
	// Overflow of amount+fee must fail.
	ovf := &Tx{To: to, Amount: ^uint64(0), Fee: 2, Nonce: 1, Kind: KindPayment}
	ovf.Sign(kp)
	if err := st.applyTx(ovf, ovf.ID()); err == nil {
		t.Error("amount+fee overflow accepted")
	}
}

func TestStateCloneIsolated(t *testing.T) {
	st := NewState(map[Address]uint64{{1}: 5})
	cl := st.Clone()
	cl.touch(Address{1}).balance = 99
	if st.Balance(Address{1}) != 5 {
		t.Error("clone shares storage with original")
	}
}

func TestGenesisDeterministic(t *testing.T) {
	a := testChain(t, nil)
	b := testChain(t, nil)
	if a.genesis != b.genesis {
		t.Error("same config produced different genesis")
	}
	if a.Height() != 0 || a.Head() == nil {
		t.Error("fresh chain should be at genesis")
	}
}

func TestMineAndApplyBlocks(t *testing.T) {
	kp := testKey(t, 1)
	addr := kp.Fingerprint()
	to := testKey(t, 2).Fingerprint()
	c := testChain(t, map[Address]uint64{addr: 1000})
	miner := testKey(t, 3).Fingerprint()

	tx := &Tx{To: to, Amount: 100, Fee: 7, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	b := extend(t, c, []*Tx{tx}, miner)

	if c.Height() != 1 || c.HeadHash() != b.Hash() {
		t.Fatal("head not advanced")
	}
	st := c.State()
	if st.Balance(addr) != 893 || st.Balance(to) != 100 {
		t.Errorf("balances: %d / %d", st.Balance(addr), st.Balance(to))
	}
	if st.Balance(miner) != 57 { // subsidy 50 + fee 7
		t.Errorf("miner reward = %d, want 57", st.Balance(miner))
	}
	if c.TotalBytes() <= 0 {
		t.Error("ledger bytes not tracked")
	}
	gotTx, gotBlock := c.FindTx(tx.ID())
	if gotTx == nil || gotBlock.Hash() != b.Hash() {
		t.Error("FindTx failed")
	}
	if tx2, _ := c.FindTx(cryptoutil.SumHash([]byte("nope"))); tx2 != nil {
		t.Error("FindTx found a ghost")
	}
}

func TestBlockValidationRejections(t *testing.T) {
	c := testChain(t, nil)
	miner := Address{9}
	good, err := c.NewBlock(c.HeadHash(), nil, time.Second, miner)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(b *Block)
	}{
		{"bad height", func(b *Block) { b.Header.Height = 7 }},
		{"time backwards", func(b *Block) { b.Header.Time = -5 }},
		{"wrong difficulty", func(b *Block) { b.Header.Difficulty = 5 }},
		{"bad merkle root", func(b *Block) { b.Header.MerkleRoot = cryptoutil.Hash{1} }},
		{"no txs", func(b *Block) { b.Txs = nil; b.Header.MerkleRoot = txMerkleRoot(nil) }},
		{"wrong coinbase amount", func(b *Block) {
			b.Txs[0].Amount = 999
			b.Header.MerkleRoot = txMerkleRoot(b.Txs)
		}},
	}
	for _, tc := range cases {
		b := &Block{Header: good.Header, Txs: append([]*Tx{}, good.Txs...)}
		cb := *good.Txs[0]
		b.Txs[0] = &cb
		tc.mutate(b)
		b.Header.Grind()
		if err := c.AddBlock(b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// PoW failure: find a nonce that misses the (tiny) target.
	b := &Block{Header: good.Header, Txs: good.Txs}
	for b.Header.MeetsTarget() {
		b.Header.Nonce++
	}
	if err := c.AddBlock(b); err == nil {
		t.Error("block without valid PoW accepted")
	}

	// Unknown parent.
	orphan := &Block{Header: Header{Prev: cryptoutil.Hash{0xAA}, Height: 5, Difficulty: 16}}
	if err := c.AddBlock(orphan); err != ErrUnknownParent {
		t.Errorf("orphan error = %v, want ErrUnknownParent", err)
	}

	// Duplicate.
	if err := c.AddBlock(good); err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(good); err != ErrDuplicate {
		t.Errorf("duplicate error = %v, want ErrDuplicate", err)
	}
}

func TestPayloadCap(t *testing.T) {
	kp := testKey(t, 1)
	c := NewChain(Config{
		InitialDifficulty: 4,
		GenesisAlloc:      map[Address]uint64{kp.Fingerprint(): 100},
	})
	atCap := &Tx{Kind: KindAnchor, Payload: make([]byte, maxPayloadBytes), Nonce: 0}
	atCap.Sign(kp)
	b, err := c.NewBlock(c.HeadHash(), []*Tx{atCap}, time.Second, Address{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Errorf("payload at the cap refused: %v", err)
	}
	over := &Tx{Kind: KindAnchor, Payload: make([]byte, maxPayloadBytes+1), Nonce: 1}
	over.Sign(kp)
	b, err = c.NewBlock(c.HeadHash(), []*Tx{over}, 2*time.Second, Address{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err == nil || !strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("oversized payload: err = %v, want the payload cap", err)
	}
}

func TestForkChoiceAndReorg(t *testing.T) {
	c := testChain(t, nil)
	genesis := c.HeadHash()

	// Branch A: one block.
	a1, err := c.NewBlock(genesis, nil, time.Second, Address{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(a1); err != nil {
		t.Fatal(err)
	}
	if c.HeadHash() != a1.Hash() {
		t.Fatal("head should be a1")
	}

	// Branch B: two blocks from genesis → more work → reorg.
	b1, err := c.NewBlock(genesis, nil, 2*time.Second, Address{2})
	if err != nil {
		t.Fatal(err)
	}
	// b1 must differ from a1; different miner address guarantees that.
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	if c.HeadHash() != a1.Hash() {
		t.Fatal("equal work should keep incumbent head")
	}
	b2, err := c.NewBlock(b1.Hash(), nil, 3*time.Second, Address{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if c.HeadHash() != b2.Hash() {
		t.Fatal("heavier branch did not win")
	}
	if c.Reorgs() != 1 {
		t.Errorf("reorgs = %d, want 1", c.Reorgs())
	}
	if c.IsOnBestChain(a1.Hash()) {
		t.Error("a1 should be off the best chain")
	}
	if !c.IsOnBestChain(b1.Hash()) {
		t.Error("b1 should be on the best chain")
	}
	if got := c.Confirmations(b1.Hash()); got != 2 {
		t.Errorf("confirmations(b1) = %d, want 2", got)
	}
	if got := c.Confirmations(a1.Hash()); got != 0 {
		t.Errorf("confirmations(a1) = %d, want 0", got)
	}
	best := c.BestBlocks()
	if len(best) != 3 || best[0].Header.Height != 0 || best[2].Hash() != b2.Hash() {
		t.Errorf("BestBlocks wrong: %d blocks", len(best))
	}
}

func TestReorgRevertsState(t *testing.T) {
	kp := testKey(t, 1)
	addr := kp.Fingerprint()
	c := testChain(t, map[Address]uint64{addr: 100})
	genesis := c.HeadHash()

	// Branch A includes a spend.
	tx := &Tx{To: Address{7}, Amount: 90, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	a1, _ := c.NewBlock(genesis, []*Tx{tx}, time.Second, Address{1})
	if err := c.AddBlock(a1); err != nil {
		t.Fatal(err)
	}
	if c.State().Balance(addr) != 10 {
		t.Fatal("spend not applied")
	}
	// Branch B (heavier) does not include the spend: balance reverts.
	b1, _ := c.NewBlock(genesis, nil, time.Second, Address{2})
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2, _ := c.NewBlock(b1.Hash(), nil, 2*time.Second, Address{2})
	if err := c.AddBlock(b2); err != nil {
		t.Fatal(err)
	}
	if c.State().Balance(addr) != 100 {
		t.Errorf("balance after reorg = %d, want 100 (double-spend window)", c.State().Balance(addr))
	}
}

func TestMempoolFeeOrderingAndNonceSequence(t *testing.T) {
	kpA, kpB := testKey(t, 1), testKey(t, 2)
	st := NewState(map[Address]uint64{kpA.Fingerprint(): 1000, kpB.Fingerprint(): 1000})
	pool := NewMempool()

	// A sends a nonce sequence with mixed fees; B sends one high-fee tx.
	a0 := &Tx{To: Address{9}, Amount: 1, Fee: 1, Nonce: 0, Kind: KindPayment}
	a0.Sign(kpA)
	a1 := &Tx{To: Address{9}, Amount: 1, Fee: 50, Nonce: 1, Kind: KindPayment}
	a1.Sign(kpA)
	b0 := &Tx{To: Address{9}, Amount: 1, Fee: 10, Nonce: 0, Kind: KindPayment}
	b0.Sign(kpB)
	for _, tx := range []*Tx{a1, a0, b0} { // insertion order scrambled
		if !pool.Add(tx) {
			t.Fatal("add failed")
		}
	}
	if pool.Add(a0) {
		t.Error("duplicate add should report false")
	}
	if len(pool.ids) != 3 {
		t.Fatalf("len = %d", len(pool.ids))
	}

	sel := pool.Select(st, 10)
	if len(sel) != 3 {
		t.Fatalf("selected %d, want 3", len(sel))
	}
	// b0 (fee 10) must precede a0 (fee 1); a1 (fee 50) can only come after a0.
	pos := map[cryptoutil.Hash]int{}
	for i, tx := range sel {
		pos[tx.ID()] = i
	}
	if pos[a0.ID()] > pos[a1.ID()] {
		t.Error("nonce order violated within sender")
	}
	if pos[b0.ID()] > pos[a0.ID()] {
		t.Error("fee priority violated across senders")
	}
}

func TestMempoolSkipsUnaffordableAndGaps(t *testing.T) {
	kp := testKey(t, 1)
	st := NewState(map[Address]uint64{kp.Fingerprint(): 10})
	pool := NewMempool()
	// Nonce 1 without nonce 0: a gap, not selectable.
	gap := &Tx{To: Address{9}, Amount: 1, Nonce: 1, Kind: KindPayment}
	gap.Sign(kp)
	pool.Add(gap)
	if sel := pool.Select(st, 10); len(sel) != 0 {
		t.Errorf("selected %d from gapped pool, want 0", len(sel))
	}
	// Unaffordable tx is left in pool but not selected.
	rich := &Tx{To: Address{9}, Amount: 100, Nonce: 0, Kind: KindPayment}
	rich.Sign(kp)
	pool.Add(rich)
	if sel := pool.Select(st, 10); len(sel) != 0 {
		t.Errorf("selected unaffordable tx")
	}
	if len(pool.ids) != 2 {
		t.Errorf("pool should retain both txs, has %d", len(pool.ids))
	}
}

func TestMempoolEvictsBadSignature(t *testing.T) {
	pool := NewMempool()
	bad := &Tx{From: Address{1}, FromPub: make([]byte, 32), To: Address{2}, Amount: 1, Kind: KindPayment, Sig: []byte("junk")}
	pool.Add(bad)
	st := NewState(nil)
	pool.Select(st, 10)
	if len(pool.ids) != 0 {
		t.Error("invalid-signature tx not evicted")
	}
}

func TestMempoolRemoveMined(t *testing.T) {
	kp := testKey(t, 1)
	c := testChain(t, map[Address]uint64{kp.Fingerprint(): 100})
	pool := NewMempool()
	tx := &Tx{To: Address{2}, Amount: 1, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	pool.Add(tx)
	b := extend(t, c, []*Tx{tx}, Address{3})
	pool.RemoveMined(b)
	if pending(pool, tx.ID()) {
		t.Error("mined tx still pending")
	}
}

// Property: random valid payment sequences conserve total supply minus
// nothing (fees are paid to miners, so supply = genesis + subsidies).
func TestSupplyConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]*cryptoutil.KeyPair, 4)
		alloc := map[Address]uint64{}
		for i := range keys {
			kp, err := cryptoutil.GenerateKeyPair(rng)
			if err != nil {
				return false
			}
			keys[i] = kp
			alloc[kp.Fingerprint()] = 1000
		}
		c := NewChain(Config{InitialDifficulty: 4, Subsidy: 50, GenesisAlloc: alloc})
		minerAddr := Address{0x77}
		nonces := map[Address]uint64{}
		blocks := 1 + rng.Intn(4)
		for bi := 0; bi < blocks; bi++ {
			var txs []*Tx
			for ti := 0; ti < rng.Intn(4); ti++ {
				from := keys[rng.Intn(len(keys))]
				to := keys[rng.Intn(len(keys))].Fingerprint()
				addr := from.Fingerprint()
				tx := &Tx{To: to, Amount: uint64(rng.Intn(50)), Fee: uint64(rng.Intn(5)), Nonce: nonces[addr], Kind: KindPayment}
				tx.Sign(from)
				if c.State().checkTx(tx, tx.ID()) != nil {
					continue
				}
				// Also ensure it applies after earlier txs in this block:
				txs = append(txs, tx)
				nonces[addr]++
			}
			// Filter to a sequence that actually applies.
			st := c.State().Clone()
			var ok []*Tx
			for _, tx := range txs {
				if st.applyTx(tx, tx.ID()) == nil {
					ok = append(ok, tx)
				}
			}
			ts := time.Duration(c.Head().Header.Time) + time.Second
			b, err := c.NewBlock(c.HeadHash(), ok, ts, minerAddr)
			if err != nil {
				return false
			}
			if err := c.AddBlock(b); err != nil {
				return false
			}
		}
		want := uint64(4*1000) + uint64(blocks)*50
		return totalSupply(c.State()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMempoolSameNonceConflictPrefersHigherFee(t *testing.T) {
	kp := testKey(t, 1)
	st := NewState(map[Address]uint64{kp.Fingerprint(): 100})
	cheap := &Tx{To: Address{1}, Amount: 1, Fee: 1, Nonce: 0, Kind: KindPayment}
	cheap.Sign(kp)
	rich := &Tx{To: Address{2}, Amount: 1, Fee: 9, Nonce: 0, Kind: KindPayment}
	rich.Sign(kp)
	// Regardless of insertion order, the higher-fee conflict must win.
	for _, order := range [][]*Tx{{cheap, rich}, {rich, cheap}} {
		pool := NewMempool()
		for _, tx := range order {
			pool.Add(tx)
		}
		sel := pool.Select(st, 10)
		if len(sel) != 1 || sel[0].ID() != rich.ID() {
			t.Fatalf("selected %d txs; conflict resolution not fee-deterministic", len(sel))
		}
	}
}

func TestWalletSequencesMixedKinds(t *testing.T) {
	kp := testKey(t, 1)
	c := testChain(t, map[Address]uint64{kp.Fingerprint(): 1000})
	w := NewWallet(kp, 0)
	if w.Address() != kp.Fingerprint() {
		t.Fatal("wallet identity wrong")
	}
	txs := []*Tx{
		w.Pay(Address{1}, 10, 1),
		anchor(w, []byte("document hash"), 1),
		w.Pay(Address{2}, 20, 1),
	}
	for i, tx := range txs {
		if tx.Nonce != uint64(i) {
			t.Fatalf("tx %d nonce = %d", i, tx.Nonce)
		}
		if err := tx.CheckSig(); err != nil {
			t.Fatal(err)
		}
	}
	extend(t, c, txs, Address{9})
	st := c.State()
	if st.Balance(Address{1}) != 10 || st.Balance(Address{2}) != 20 {
		t.Error("payments not applied")
	}
	if st.Nonce(kp.Fingerprint()) != 3 || w.NextNonce() != 3 {
		t.Errorf("nonces: chain %d wallet %d", st.Nonce(kp.Fingerprint()), w.nonce-1)
	}
}

// anchor builds a signed data-commitment transaction at the wallet's next
// nonce, a kind the wallet has no helper for.
func anchor(w *Wallet, payload []byte, fee uint64) *Tx {
	tx := &Tx{Kind: KindAnchor, Payload: payload, Fee: fee, Nonce: w.NextNonce()}
	tx.Sign(w.key)
	return tx
}

// pending reports whether the transaction is pending in m.
func pending(m *Mempool, id cryptoutil.Hash) bool {
	_, ok := m.ids[id]
	return ok
}

// totalSupply is the sum of every balance in st.
func totalSupply(st *State) uint64 {
	var total uint64
	for i := range st.accounts {
		total += st.accounts[i].balance
	}
	return total
}

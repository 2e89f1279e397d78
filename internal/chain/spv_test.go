package chain

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// buildFundedChain mines a few blocks, the first carrying a payment.
func buildFundedChain(t *testing.T) (*Chain, Config) {
	t.Helper()
	kp := testKey(t, 1)
	cfg := Config{
		InitialDifficulty: 16,
		Subsidy:           50,
		GenesisAlloc:      map[Address]uint64{kp.Fingerprint(): 1000},
	}
	c := NewChain(cfg)
	tx := &Tx{To: Address{9}, Amount: 5, Fee: 1, Nonce: 0, Kind: KindPayment}
	tx.Sign(kp)
	ts := time.Second
	b, err := c.NewBlock(c.HeadHash(), []*Tx{tx}, ts, Address{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts += time.Second
		b, err := c.NewBlock(c.HeadHash(), nil, ts, Address{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return c, cfg
}

func TestSPVSyncFootprint(t *testing.T) {
	c, cfg := buildFundedChain(t)
	hc := NewHeaderChain(cfg)
	if added := hc.Sync(c); added != 4 {
		t.Fatalf("synced %d headers, want 4", added)
	}
	if h := hc.headers[hc.head].Height; h != c.Height() {
		t.Fatalf("light height %d != full height %d", h, c.Height())
	}
	// Light client stores far less than the full ledger.
	if hc.HeaderBytes() >= c.TotalBytes() {
		t.Errorf("light client (%d B) should be smaller than ledger (%d B)", hc.HeaderBytes(), c.TotalBytes())
	}
}

func TestSPVHeaderValidation(t *testing.T) {
	_, cfg := buildFundedChain(t)
	hc := NewHeaderChain(cfg)
	// Unknown parent.
	orphan := Header{Prev: cryptoutil.SumHash([]byte("nope")), Height: 3, Difficulty: 16}
	orphan.Grind()
	if err := hc.AddHeader(orphan); err != ErrHeaderUnknownParent {
		t.Errorf("got %v, want ErrHeaderUnknownParent", err)
	}
	// Bad PoW: find a nonce that misses.
	gh := hc.head
	bad := Header{Prev: gh, Height: 1, Difficulty: 1 << 30}
	for bad.MeetsTarget() {
		bad.Nonce++
	}
	if err := hc.AddHeader(bad); err != ErrHeaderBadPoW {
		t.Errorf("got %v, want ErrHeaderBadPoW", err)
	}
	// Bad height.
	wrongHeight := Header{Prev: gh, Height: 7, Difficulty: 1}
	wrongHeight.Grind()
	if err := hc.AddHeader(wrongHeight); err == nil {
		t.Error("bad height accepted")
	}
}

func TestSPVFollowsHeaviestBranch(t *testing.T) {
	c, cfg := buildFundedChain(t)
	hc := NewHeaderChain(cfg)
	hc.Sync(c)
	oldHead := hc.head

	// Extend the full chain; re-sync picks up the new head.
	ts := time.Duration(c.Head().Header.Time) + time.Second
	b, err := c.NewBlock(c.HeadHash(), nil, ts, Address{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if added := hc.Sync(c); added != 1 {
		t.Fatalf("incremental sync added %d", added)
	}
	newHead := hc.head
	if newHead == oldHead || newHead != c.HeadHash() {
		t.Error("light client did not follow the extended chain")
	}
	// Duplicate sync is a no-op.
	if added := hc.Sync(c); added != 0 {
		t.Errorf("duplicate sync added %d", added)
	}
	if _, ok := hc.headers[newHead]; !ok || len(hc.headers) != c.NumBlocks() {
		t.Error("header bookkeeping wrong")
	}
}

// TestSPVPicksHeavierFork: given both branches of a fork, the light client
// follows the one with more work, whatever the order it heard them in.
func TestSPVPicksHeavierFork(t *testing.T) {
	cfg := Config{InitialDifficulty: 16}
	c := NewChain(cfg)
	genesis := c.HeadHash()
	a1, _ := c.NewBlock(genesis, nil, time.Second, Address{1})
	if err := c.AddBlock(a1); err != nil {
		t.Fatal(err)
	}
	b1, _ := c.NewBlock(genesis, nil, time.Second, Address{2})
	if err := c.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	b2, _ := c.NewBlock(b1.Hash(), nil, 2*time.Second, Address{2})
	if err := c.AddBlock(b2); err != nil {
		t.Fatal(err)
	}

	hc := NewHeaderChain(cfg)
	if err := hc.AddHeader(a1.Header); err != nil {
		t.Fatal(err)
	}
	if err := hc.AddHeader(b1.Header); err != nil {
		t.Fatal(err)
	}
	if err := hc.AddHeader(b2.Header); err != nil {
		t.Fatal(err)
	}
	if hc.head != b2.Hash() {
		t.Errorf("light head %s, want the heavier branch's tip %s", hc.head.Short(), b2.Hash().Short())
	}
}

func TestCompactFreesStatesAndBlocksDeepForks(t *testing.T) {
	c := testChain(t, nil)
	var mid *Block
	for i := 0; i < 9; i++ {
		b := extend(t, c, nil, Address{1})
		if i == 3 {
			mid = b
		}
	}
	if c.StatesHeld() != 10 { // genesis + 9
		t.Fatalf("states = %d", c.StatesHeld())
	}
	freed := c.Compact(3)
	if freed == 0 || c.StatesHeld() != 10-freed {
		t.Fatalf("freed=%d held=%d", freed, c.StatesHeld())
	}
	// Head state must survive and stay usable.
	if c.State() == nil {
		t.Fatal("head state lost")
	}
	// Extending the head still works.
	extend(t, c, nil, Address{1})
	// A fork below the checkpoint is rejected with the dedicated error.
	deep, err := c.NewBlock(mid.Hash(), nil, time.Hour, Address{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(deep); err != ErrTooDeepFork {
		t.Errorf("deep fork error = %v, want ErrTooDeepFork", err)
	}
	// Shallow forks (within the kept window) still reorg normally.
	parent := c.BestBlocks()[int(c.Height())-1] // one below head
	s1, err := c.NewBlock(parent.Hash(), nil, time.Hour, Address{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBlock(s1); err != nil {
		t.Fatalf("shallow fork rejected: %v", err)
	}
	// Compacting an already short chain is a no-op.
	short := testChain(t, nil)
	if short.Compact(100) != 0 {
		t.Error("short-chain compact should free nothing")
	}
}

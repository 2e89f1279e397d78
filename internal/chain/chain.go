package chain

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// Config sets the consensus parameters of a chain.
type Config struct {
	// InitialDifficulty is the genesis difficulty in expected hashes. It
	// costs virtual time only: a block's seal takes at most 16 expected
	// hashes on the host whatever the difficulty.
	InitialDifficulty uint64
	// TargetSpacing is the desired inter-block time; retargeting steers the
	// difficulty toward it.
	TargetSpacing time.Duration
	// RetargetInterval is how many blocks between difficulty adjustments.
	// Zero disables retargeting.
	RetargetInterval int
	// Subsidy is the coinbase block reward.
	Subsidy uint64
	// MaxTxsPerBlock caps non-coinbase transactions per block (the paper's
	// "limits on data storage" weakness). Zero means 1000.
	MaxTxsPerBlock int
	// GenesisAlloc pre-funds accounts at genesis.
	GenesisAlloc map[Address]uint64
}

// maxPayloadBytes caps a transaction payload (the paper's "limits on data
// storage"): 4 KiB holds a naming operation, a storage contract or an
// anchored hash, and keeps a full 1000-transaction block near 4 MB.
const maxPayloadBytes = 4096

func (c Config) withDefaults() Config {
	if c.InitialDifficulty == 0 {
		c.InitialDifficulty = 1 << 12
	}
	if c.TargetSpacing == 0 {
		c.TargetSpacing = 10 * time.Second
	}
	if c.MaxTxsPerBlock == 0 {
		c.MaxTxsPerBlock = 1000
	}
	if c.Subsidy == 0 {
		c.Subsidy = 50
	}
	return c
}

// Chain is one replica's view of the block tree. Each simulated node keeps
// its own Chain; consensus emerges from exchanging blocks and applying the
// same heaviest-chain rule.
type Chain struct {
	cfg     Config
	blocks  map[cryptoutil.Hash]*record
	head    cryptoutil.Hash
	genesis cryptoutil.Hash
	bytes   int64 // total bytes across all stored blocks ("endless ledger")
	reorgs  int
	// observers fire after the head changes.
	onHead []func(newHead *Block)

	// Observability (nil until SetObs): accepted-block and reorg counters,
	// reorg depth distribution, and the head height gauge.
	obsAccepted   *obs.Counter
	obsReorgs     *obs.Counter
	obsReorgDepth *obs.Histogram
	obsHeight     *obs.Gauge
}

// record is everything the tree keeps per block.
type record struct {
	block *Block
	state *State   // account state after the block; nil once Compact discarded it
	work  *big.Int // cumulative work including the block itself
}

// ErrUnknownParent is returned by AddBlock when the parent block has not
// been seen; the caller should fetch it and retry.
var ErrUnknownParent = errors.New("chain: unknown parent block")

// ErrDuplicate is returned for blocks already in the tree.
var ErrDuplicate = errors.New("chain: duplicate block")

// NewChain creates a chain with a deterministic genesis block derived from
// the config.
func NewChain(cfg Config) *Chain {
	cfg = cfg.withDefaults()
	c := &Chain{cfg: cfg, blocks: map[cryptoutil.Hash]*record{}}
	genesis := &Block{Header: Header{Difficulty: 1}}
	gh := genesis.Hash()
	c.blocks[gh] = &record{block: genesis, state: NewState(cfg.GenesisAlloc), work: big.NewInt(0)}
	c.head = gh
	c.genesis = gh
	c.bytes += int64(genesis.WireSize())
	return c
}

// SetObs points the chain's protocol metrics at a registry (normally the
// simnet network's, wired by NewMiner). Several replicas publishing into
// one registry accumulate network-wide totals: chain.block.accepted counts
// every replica's acceptances, chain.reorg.depth pools every replica's
// branch switches.
func (c *Chain) SetObs(r *obs.Registry) {
	c.obsAccepted = r.Counter("chain.block.accepted")
	c.obsReorgs = r.Counter("chain.reorg.count")
	c.obsReorgDepth = r.Histogram("chain.reorg.depth")
	c.obsHeight = r.Gauge("chain.height")
}

// Config returns the chain's configuration.
func (c *Chain) Config() Config { return c.cfg }

// Head returns the current best block.
func (c *Chain) Head() *Block { return c.blocks[c.head].block }

// HeadHash returns the current best block's hash.
func (c *Chain) HeadHash() cryptoutil.Hash { return c.head }

// Height returns the height of the head block.
func (c *Chain) Height() uint64 { return c.Head().Header.Height }

// Block returns a block by hash, or nil.
func (c *Chain) Block(h cryptoutil.Hash) *Block {
	if r := c.blocks[h]; r != nil {
		return r.block
	}
	return nil
}

// State returns the account state at the head.
func (c *Chain) State() *State { return c.blocks[c.head].state }

// StateAt returns the state at an arbitrary known block, or nil.
func (c *Chain) StateAt(h cryptoutil.Hash) *State {
	if r := c.blocks[h]; r != nil {
		return r.state
	}
	return nil
}

// TotalBytes returns the cumulative ledger size in bytes over every block
// ever stored (including stale branches) — the paper's "endless ledger"
// metric.
func (c *Chain) TotalBytes() int64 { return c.bytes }

// WorkExpended returns the cumulative expected hash evaluations along the
// best chain — the paper's "wasteful mining computation" metric.
func (c *Chain) WorkExpended() *big.Int { return new(big.Int).Set(c.blocks[c.head].work) }

// Reorgs returns how many times the head has switched branches.
func (c *Chain) Reorgs() int { return c.reorgs }

// NumBlocks returns the number of blocks in the tree (all branches).
func (c *Chain) NumBlocks() int { return len(c.blocks) }

// OnHead registers an observer invoked after every head change.
func (c *Chain) OnHead(f func(*Block)) { c.onHead = append(c.onHead, f) }

// NextDifficulty computes the difficulty for a block extending parent,
// applying Bitcoin-style proportional retargeting clamped to [¼, 4]×.
func (c *Chain) NextDifficulty(parentHash cryptoutil.Hash) uint64 {
	parent := c.Block(parentHash)
	if parent == nil {
		return c.cfg.InitialDifficulty
	}
	if parent.Header.Height == 0 {
		return c.cfg.InitialDifficulty
	}
	interval := c.cfg.RetargetInterval
	if interval <= 0 || parent.Header.Height%uint64(interval) != 0 {
		return parent.Header.Difficulty
	}
	// Walk back interval blocks to find the window start.
	start := parent
	for i := 0; i < interval && start.Header.Height > 0; i++ {
		start = c.Block(start.Header.Prev)
	}
	actual := time.Duration(parent.Header.Time - start.Header.Time)
	expected := c.cfg.TargetSpacing * time.Duration(interval)
	if actual <= 0 {
		actual = time.Nanosecond
	}
	ratio := float64(expected) / float64(actual)
	if ratio > 4 {
		ratio = 4
	}
	if ratio < 0.25 {
		ratio = 0.25
	}
	next := uint64(float64(parent.Header.Difficulty) * ratio)
	if next == 0 {
		next = 1
	}
	return next
}

// validate fully checks a block against its (known) parent; ids are its
// transactions' IDs.
func (c *Chain) validate(b *Block, ids []cryptoutil.Hash) error {
	parent := c.Block(b.Header.Prev)
	if parent == nil {
		return ErrUnknownParent
	}
	if b.Header.Height != parent.Header.Height+1 {
		return fmt.Errorf("chain: block %s: height %d, parent height %d", b.Hash().Short(), b.Header.Height, parent.Header.Height)
	}
	if b.Header.Time < parent.Header.Time {
		return fmt.Errorf("chain: block %s: time goes backwards", b.Hash().Short())
	}
	if want := c.NextDifficulty(b.Header.Prev); b.Header.Difficulty != want {
		return fmt.Errorf("chain: block %s: difficulty %d, want %d", b.Hash().Short(), b.Header.Difficulty, want)
	}
	if !b.Header.MeetsTarget() {
		return fmt.Errorf("chain: block %s: proof of work below target", b.Hash().Short())
	}
	if b.Header.MerkleRoot != idsMerkleRoot(ids) {
		return fmt.Errorf("chain: block %s: merkle root mismatch", b.Hash().Short())
	}
	if len(b.Txs) == 0 {
		return fmt.Errorf("chain: block %s: missing coinbase", b.Hash().Short())
	}
	if len(b.Txs)-1 > c.cfg.MaxTxsPerBlock {
		return fmt.Errorf("chain: block %s: %d txs exceeds cap %d", b.Hash().Short(), len(b.Txs)-1, c.cfg.MaxTxsPerBlock)
	}
	if !b.Txs[0].IsCoinbase() {
		return fmt.Errorf("chain: block %s: first tx is not coinbase", b.Hash().Short())
	}
	for _, tx := range b.Txs[1:] {
		if tx.IsCoinbase() {
			return fmt.Errorf("chain: block %s: extra coinbase", b.Hash().Short())
		}
		if len(tx.Payload) > maxPayloadBytes {
			return fmt.Errorf("chain: block %s: tx payload %d exceeds cap %d", b.Hash().Short(), len(tx.Payload), maxPayloadBytes)
		}
	}
	return nil
}

// AddBlock validates b, connects it to the tree, computes its state, and
// reorgs the head if b's branch now has the most cumulative work. It
// returns ErrUnknownParent if the parent is missing and ErrDuplicate if b
// is already present.
func (c *Chain) AddBlock(b *Block) error {
	h := b.Hash()
	if _, ok := c.blocks[h]; ok {
		return ErrDuplicate
	}
	// Each transaction is hashed once, for its Merkle leaf and its
	// signature check both.
	var scratch [stackTxs]cryptoutil.Hash
	ids := hashRoom(scratch[:], len(b.Txs))
	for i, tx := range b.Txs {
		ids[i] = tx.ID()
	}
	if err := c.validate(b, ids); err != nil {
		return err
	}
	// Apply transactions on a copy of the parent state. A missing parent
	// state means Compact discarded it: the branch forks too deep.
	parent := c.blocks[b.Header.Prev]
	if parent.state == nil {
		return ErrTooDeepFork
	}
	st := parent.state.Clone()
	var fees uint64
	for i, tx := range b.Txs[1:] {
		if err := st.applyTx(tx, ids[1+i]); err != nil {
			return fmt.Errorf("chain: block %s: %w", h.Short(), err)
		}
		fees += tx.Fee
	}
	if want := c.cfg.Subsidy + fees; b.Txs[0].Amount != want {
		return fmt.Errorf("chain: block %s: coinbase amount %d, want %d", h.Short(), b.Txs[0].Amount, want)
	}
	st.applyCoinbase(b.Txs[0])

	work := new(big.Int).Add(parent.work, Work(b.Header.Difficulty))
	c.blocks[h] = &record{block: b, state: st, work: work}
	c.bytes += int64(b.WireSize())

	if c.obsAccepted != nil {
		c.obsAccepted.Inc()
	}
	// Heaviest chain wins; ties break toward the incumbent (first seen).
	if work.Cmp(c.blocks[c.head].work) > 0 {
		oldHead := c.head
		c.head = h
		if b.Header.Prev != oldHead {
			c.reorgs++
			if c.obsReorgs != nil {
				c.obsReorgs.Inc()
				c.obsReorgDepth.Observe(float64(c.forkDepth(oldHead, h)))
			}
		}
		if c.obsHeight != nil {
			c.obsHeight.Set(float64(b.Header.Height))
		}
		for _, f := range c.onHead {
			f(b)
		}
	}
	return nil
}

// forkDepth returns how many blocks the abandoned branch extended past the
// common ancestor of oldHead and newHead — the depth of the reorg from the
// replica's point of view. Walks stop early (best-effort) if Compact has
// discarded part of either branch.
func (c *Chain) forkDepth(oldHead, newHead cryptoutil.Hash) uint64 {
	a, b := c.Block(oldHead), c.Block(newHead)
	if a == nil || b == nil {
		return 0
	}
	for b.Header.Height > a.Header.Height {
		if b = c.Block(b.Header.Prev); b == nil {
			return 0
		}
	}
	for a.Header.Height > b.Header.Height {
		na := c.Block(a.Header.Prev)
		if na == nil {
			return a.Header.Height - b.Header.Height
		}
		a = na
	}
	// Blocks are stored once, so pointer equality identifies the ancestor.
	for a != b {
		na, nb := c.Block(a.Header.Prev), c.Block(b.Header.Prev)
		if na == nil || nb == nil {
			break
		}
		a, b = na, nb
	}
	return c.Block(oldHead).Header.Height - a.Header.Height
}

// IsOnBestChain reports whether block h lies on the path from genesis to
// the current head.
func (c *Chain) IsOnBestChain(h cryptoutil.Hash) bool {
	b := c.Block(h)
	if b == nil {
		return false
	}
	cur := c.Head()
	for cur.Header.Height > b.Header.Height {
		cur = c.Block(cur.Header.Prev)
	}
	return cur.Hash() == h
}

// Confirmations returns how many blocks (including itself) are stacked on
// top of h along the best chain, or 0 if h is not on the best chain.
func (c *Chain) Confirmations(h cryptoutil.Hash) uint64 {
	if !c.IsOnBestChain(h) {
		return 0
	}
	return c.Height() - c.Block(h).Header.Height + 1
}

// BestBlocks returns the best chain from genesis to head, oldest first.
func (c *Chain) BestBlocks() []*Block {
	var out []*Block
	for h := c.head; ; {
		b := c.Block(h)
		out = append(out, b)
		if b.Header.Height == 0 {
			break
		}
		h = b.Header.Prev
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FindTx searches the best chain for a transaction by ID and returns it
// with the containing block, or nils.
func (c *Chain) FindTx(id cryptoutil.Hash) (*Tx, *Block) {
	for b := c.Head(); ; b = c.Block(b.Header.Prev) {
		for _, tx := range b.Txs {
			if tx.ID() == id {
				return tx, b
			}
		}
		if b.Header.Height == 0 {
			return nil, nil
		}
	}
}

// NewBlock assembles and grinds a block extending parent with the given
// transactions (coinbase excluded; it is built here). The caller is
// responsible for having validated the transactions against the parent
// state.
func (c *Chain) NewBlock(parentHash cryptoutil.Hash, txs []*Tx, timestamp time.Duration, miner Address) (*Block, error) {
	parent := c.Block(parentHash)
	if parent == nil {
		return nil, ErrUnknownParent
	}
	var fees uint64
	for _, tx := range txs {
		fees += tx.Fee
	}
	height := parent.Header.Height + 1
	all := append([]*Tx{NewCoinbase(miner, c.cfg.Subsidy+fees, height)}, txs...)
	b := &Block{
		Header: Header{
			Prev:       parentHash,
			MerkleRoot: txMerkleRoot(all),
			Height:     height,
			Time:       int64(timestamp),
			Difficulty: c.NextDifficulty(parentHash),
		},
		Txs: all,
	}
	b.Header.Grind()
	return b, nil
}

// ErrTooDeepFork is returned by AddBlock when a block forks below the
// compaction checkpoint: its parent's state has been discarded, so the
// branch can no longer be validated. This is the standard price of
// checkpoint-style pruning.
var ErrTooDeepFork = errors.New("chain: fork below compaction checkpoint")

// Compact discards per-block account states deeper than keepStates blocks
// under the best head — the full node's mitigation of the paper's "endless
// ledger problem" for working-set memory. Block bodies are retained (the
// naming index replays them; SPV clients need headers), but reorgs deeper
// than keepStates become impossible: AddBlock returns ErrTooDeepFork for
// branches rooted below the checkpoint. It returns how many states were
// freed.
func (c *Chain) Compact(keepStates uint64) int {
	head := c.Height()
	if head <= keepStates {
		return 0
	}
	cutoff := head - keepStates
	freed := 0
	for _, r := range c.blocks { //determinism:ok only sets and counts
		if r.block.Header.Height < cutoff && r.state != nil {
			r.state = nil
			freed++
		}
	}
	return freed
}

// StatesHeld returns how many per-block states are currently retained.
func (c *Chain) StatesHeld() int {
	held := 0
	for _, r := range c.blocks { //determinism:ok only counts
		if r.state != nil {
			held++
		}
	}
	return held
}

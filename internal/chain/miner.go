package chain

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Wire message kinds used by miners and relay nodes.
const (
	MsgBlock    = "chain.block"    // payload *Block
	MsgTx       = "chain.tx"       // payload *Tx
	MsgGetBlock = "chain.getblock" // payload cryptoutil.Hash
)

// Miner is a simulated proof-of-work miner/full node. Each miner owns a
// Chain replica and a mempool, gossips blocks and transactions to its
// peers, and discovers blocks after exponentially distributed virtual time
// with mean difficulty/hashrate.
//
// A Miner can also model the attacker in the paper's "51 % attack": pin the
// mining parent with SetMiningTarget, withhold found blocks with
// SetWithhold, and publish the private branch with Release (experiment X2).
type Miner struct {
	node  *simnet.Node
	chain *Chain
	pool  *Mempool
	// Hashrate is in expected hash evaluations per second of virtual time.
	hashrate float64
	address  Address
	peers    []simnet.NodeID

	withhold bool
	withheld []*Block
	// pinned, when non-zero, overrides the chain head as the mining parent.
	pinned cryptoutil.Hash

	// mineTimer is the pending block-discovery event; rescheduling mining
	// cancels it outright instead of leaving a dead event in the queue, so
	// at most one is pending, and mineParent is the block it extends.
	mineTimer   simnet.Timer
	mineParent  cryptoutil.Hash
	blocksFound int
	orphans     map[cryptoutil.Hash][]*Block // parent hash -> waiting blocks
	started     bool
	// onAccepted observers fire whenever a block enters this miner's chain
	// (mined==true for self-mined blocks, false for received ones).
	// Strategy controllers (e.g. selfish mining) hook here.
	onAccepted []func(b *Block, mined bool)
}

// NewMiner attaches a miner to a simnet node. The chain must be a fresh
// replica (each miner needs its own); address receives coinbase rewards.
func NewMiner(node *simnet.Node, c *Chain, address Address, hashrate float64) *Miner {
	m := &Miner{
		node:     node,
		chain:    c,
		pool:     NewMempool(),
		hashrate: hashrate,
		address:  address,
		orphans:  map[cryptoutil.Hash][]*Block{},
	}
	m.pool.tip = c.State
	c.SetObs(node.Obs())
	node.Handle(MsgBlock, m.onBlock)
	node.Handle(MsgTx, m.onTx)
	node.Handle(MsgGetBlock, m.onGetBlock)
	node.OnUp(func() {
		if m.started {
			m.scheduleMine()
		}
	})
	node.OnDown(func() { m.mineTimer.Cancel() })
	prev := c.Head()
	c.OnHead(func(b *Block) {
		m.repool(prev, b)
		prev = b
		if m.started && m.pinned.IsZero() {
			m.scheduleMine() // head moved: restart on the new tip
		}
	})
	return m
}

// repool brings the pool in line with a head change from old to head: both
// branches are walked down to the fork point, every block that joined the
// best chain takes its transactions out of the pool, and every block that
// left gives its own back — Add refuses the ones the new branch mined too.
func (m *Miner) repool(old, head *Block) {
	// Blocks are stored once, so pointer equality identifies the fork point.
	for old != head {
		if old.Header.Height >= head.Header.Height {
			for _, tx := range old.Txs[1:] {
				m.pool.Add(tx)
			}
			old = m.chain.Block(old.Header.Prev)
		} else {
			m.pool.RemoveMined(head)
			head = m.chain.Block(head.Header.Prev)
		}
	}
}

// Chain returns the miner's chain replica.
func (m *Miner) Chain() *Chain { return m.chain }

// Node returns the underlying simulated node.
func (m *Miner) Node() *simnet.Node { return m.node }

// Pool returns the miner's mempool.
func (m *Miner) Pool() *Mempool { return m.pool }

// Address returns the coinbase payout address.
func (m *Miner) Address() Address { return m.address }

// BlocksFound returns how many blocks this miner has discovered.
//
//reach:the root scale test checks a long run's miners found blocks
func (m *Miner) BlocksFound() int { return m.blocksFound }

// SetPeers sets the gossip peer set.
func (m *Miner) SetPeers(peers []simnet.NodeID) { m.peers = peers }

// SetHashrate changes the miner's hashrate (expected hash evaluations per
// second of virtual time); takes effect at the next mining (re)schedule.
func (m *Miner) SetHashrate(h float64) {
	m.hashrate = h
	if m.started {
		m.scheduleMine()
	}
}

// SetWithhold toggles block withholding (selfish/51 % attacker mode).
func (m *Miner) SetWithhold(w bool) { m.withhold = w }

// Withheld returns the blocks found but not yet broadcast.
func (m *Miner) Withheld() []*Block { return m.withheld }

// OnBlockAccepted registers an observer invoked after any block joins this
// miner's chain replica; mined reports whether this miner produced it.
func (m *Miner) OnBlockAccepted(f func(b *Block, mined bool)) {
	m.onAccepted = append(m.onAccepted, f)
}

func (m *Miner) notifyAccepted(b *Block, mined bool) {
	for _, f := range m.onAccepted {
		f(b, mined)
	}
}

// SetMiningTarget pins the mining parent to h (attack mode). Pass the zero
// hash to resume following the chain head.
func (m *Miner) SetMiningTarget(h cryptoutil.Hash) {
	m.pinned = h
	if m.started {
		m.scheduleMine()
	}
}

// Start begins the mining process. Safe to call once; mining restarts
// automatically on head changes and node restarts.
func (m *Miner) Start() {
	if m.started {
		return
	}
	m.started = true
	m.scheduleMine()
}

// Stop halts mining (the in-flight discovery event is cancelled).
func (m *Miner) Stop() {
	m.started = false
	m.mineTimer.Cancel()
}

func (m *Miner) miningParent() cryptoutil.Hash {
	if !m.pinned.IsZero() {
		// Mine on the tip of the private branch: follow children of pinned
		// that we ourselves produced (withheld list), else pinned itself.
		if len(m.withheld) > 0 {
			return m.withheld[len(m.withheld)-1].Hash()
		}
		return m.pinned
	}
	return m.chain.HeadHash()
}

func (m *Miner) scheduleMine() {
	m.mineTimer.Cancel()
	if m.hashrate <= 0 || !m.started {
		return
	}
	parent := m.miningParent()
	difficulty := m.chain.NextDifficulty(parent)
	mean := float64(difficulty) / m.hashrate // seconds
	// The discovery delay draws from the miner's own RNG stream, so one
	// miner's luck is independent of every other node's event schedule.
	delay := time.Duration(m.node.Rand().ExpFloat64() * mean * float64(time.Second))
	if delay <= 0 {
		delay = time.Nanosecond
	}
	m.mineParent = parent
	m.mineTimer = m.node.Network().AfterCall(delay, minerMineEvent, m)
}

// minerMineEvent is the EventFunc behind every block discovery; arg is the
// *Miner, which holds the parent the discovery extends.
func minerMineEvent(arg any) {
	m := arg.(*Miner)
	if !m.node.Up() || !m.started {
		return
	}
	m.mineOne(m.mineParent)
}

func (m *Miner) mineOne(parent cryptoutil.Hash) {
	st := m.chain.StateAt(parent)
	if st == nil {
		m.scheduleMine()
		return
	}
	txs := m.pool.Select(st, m.chain.Config().MaxTxsPerBlock)
	b, err := m.chain.NewBlock(parent, txs, m.node.Now(), m.address)
	if err != nil {
		m.scheduleMine()
		return
	}
	if err := m.chain.AddBlock(b); err != nil {
		m.scheduleMine()
		return
	}
	m.blocksFound++
	if m.withhold {
		m.withheld = append(m.withheld, b)
	} else {
		m.broadcastBlock(b)
	}
	m.notifyAccepted(b, true)
	m.scheduleMine()
}

// Release broadcasts every withheld block, oldest first, and clears the
// withheld list. Used by the 51 % attack harness to publish the private
// branch.
func (m *Miner) Release() {
	for _, b := range m.withheld {
		m.broadcastBlock(b)
	}
	m.withheld = nil
}

func (m *Miner) broadcastBlock(b *Block) {
	for _, p := range m.peers {
		m.node.Send(p, MsgBlock, b, b.WireSize())
	}
}

// SubmitTx adds a transaction to the local pool and gossips it.
func (m *Miner) SubmitTx(tx *Tx) {
	if !m.pool.Add(tx) {
		return
	}
	for _, p := range m.peers {
		m.node.Send(p, MsgTx, tx, tx.WireSize())
	}
}

func (m *Miner) onTx(msg simnet.Message) {
	tx, ok := msg.Payload.(*Tx)
	if !ok {
		return
	}
	if !m.pool.Add(tx) {
		return // already known: stop the flood
	}
	for _, p := range m.peers {
		if p != msg.From {
			m.node.Send(p, MsgTx, tx, tx.WireSize())
		}
	}
}

func (m *Miner) onBlock(msg simnet.Message) {
	b, ok := msg.Payload.(*Block)
	if !ok {
		return
	}
	m.acceptBlock(b, msg.From)
}

func (m *Miner) acceptBlock(b *Block, from simnet.NodeID) {
	h := b.Hash()
	switch err := m.chain.AddBlock(b); err {
	case nil:
		// Relay to peers other than the sender, then connect any orphans
		// that were waiting on this block.
		for _, p := range m.peers {
			if p != from {
				m.node.Send(p, MsgBlock, b, b.WireSize())
			}
		}
		m.notifyAccepted(b, false)
		if kids, ok := m.orphans[h]; ok {
			delete(m.orphans, h)
			for _, kid := range kids {
				m.acceptBlock(kid, from)
			}
		}
	case ErrUnknownParent:
		m.orphans[b.Header.Prev] = append(m.orphans[b.Header.Prev], b)
		m.node.Send(from, MsgGetBlock, b.Header.Prev, 64)
	default:
		// Invalid or duplicate: drop silently.
	}
}

func (m *Miner) onGetBlock(msg simnet.Message) {
	h, ok := msg.Payload.(cryptoutil.Hash)
	if !ok {
		return
	}
	if b := m.chain.Block(h); b != nil {
		m.node.Send(msg.From, MsgBlock, b, b.WireSize())
	}
}

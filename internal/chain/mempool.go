package chain

import (
	"bytes"
	"sort"

	"repro/internal/cryptoutil"
)

// Mempool holds transactions waiting for inclusion, ordered for block
// assembly by fee (descending) with per-sender nonce order preserved.
//
// Each sender has one queue kept sorted by (nonce, fee descending, ID), so
// the head of a queue is the sender's next candidate and same-nonce
// conflicts sit next to each other, best first. Select merges the queue
// heads; nothing on its result path iterates a Go map. A transaction is
// filed, ordered and signature-checked under the ID it had when added, so
// it must not be modified after Add.
type Mempool struct {
	ids      map[cryptoutil.Hash]struct{}
	bySender map[Address]*senderQueue
	// queues is the slice Select walks. A queue emptied between two Selects
	// stays until the next one drops it onto spare, where Add takes a new
	// sender's queue from before it allocates one.
	queues []*senderQueue
	spare  []*senderQueue
	// work is Select's working copy of the state it was given, kept so
	// that its slice serves the next call.
	work State
	// tip, when set, returns the state admission is checked against: a
	// miner's pool refuses what its chain's head has already spent. A pool
	// on its own admits everything.
	tip func() *State
}

// pooled is a transaction filed with the ID it was admitted under.
type pooled struct {
	tx *Tx
	id cryptoutil.Hash
}

// before is the order of a sender's queue. Same-nonce transactions
// conflict: the higher fee comes first, then the lower ID.
func (p pooled) before(o pooled) bool {
	if p.tx.Nonce != o.tx.Nonce {
		return p.tx.Nonce < o.tx.Nonce
	}
	return p.outbids(o)
}

// outbids is the pick order across senders: higher fee, then lower ID. IDs
// are unique in a pool, so the order is total and a selection does not
// depend on the order queues are visited in.
func (p pooled) outbids(o pooled) bool {
	if p.tx.Fee != o.tx.Fee {
		return p.tx.Fee > o.tx.Fee
	}
	return bytes.Compare(p.id[:], o.id[:]) < 0
}

type senderQueue struct {
	from Address
	txs  []pooled

	// The rest is Select's, valid within one call: txs[cur] is the sender's
	// candidate, ready says it applies to the working state, and stale that
	// cur and ready must be settled again before they are read.
	cur   int
	ready bool
	stale bool
}

// NewMempool creates an empty mempool.
func NewMempool() *Mempool {
	return &Mempool{ids: map[cryptoutil.Hash]struct{}{}, bySender: map[Address]*senderQueue{}}
}

// Add inserts a transaction; duplicates are ignored, and so is a
// transaction whose nonce the pool's chain has already spent (a relayed
// copy arriving after the block that mined it). It reports whether the
// transaction was admitted.
func (m *Mempool) Add(tx *Tx) bool {
	p := pooled{tx: tx, id: tx.ID()}
	if _, ok := m.ids[p.id]; ok {
		return false
	}
	if m.tip != nil && tx.Nonce < m.tip().Nonce(tx.From) {
		return false
	}
	q := m.bySender[tx.From]
	if q == nil {
		q = m.newQueue(tx.From)
		m.bySender[tx.From] = q
		m.queues = append(m.queues, q)
	}
	i := sort.Search(len(q.txs), func(k int) bool { return p.before(q.txs[k]) })
	q.txs = append(q.txs, pooled{})
	copy(q.txs[i+1:], q.txs[i:])
	q.txs[i] = p
	m.ids[p.id] = struct{}{}
	return true
}

// newQueue returns an empty queue for sender from: a spare one, reset,
// when there is one. A spare queue's transactions were all evicted, which
// cleared their entries.
func (m *Mempool) newQueue(from Address) *senderQueue {
	n := len(m.spare)
	if n == 0 {
		return &senderQueue{from: from}
	}
	q := m.spare[n-1]
	m.spare[n-1] = nil
	m.spare = m.spare[:n-1]
	*q = senderQueue{from: from, txs: q.txs}
	return q
}

// RemoveMined deletes every transaction included in block b.
func (m *Mempool) RemoveMined(b *Block) {
	for _, tx := range b.Txs {
		p := pooled{tx: tx, id: tx.ID()}
		if _, ok := m.ids[p.id]; !ok {
			continue
		}
		q := m.bySender[tx.From]
		i := sort.Search(len(q.txs), func(k int) bool { return !q.txs[k].before(p) })
		if i < len(q.txs) && q.txs[i].id == p.id {
			m.evict(q, i, i+1)
		}
	}
}

// evict drops q.txs[lo:hi] from the pool.
func (m *Mempool) evict(q *senderQueue, lo, hi int) {
	for _, p := range q.txs[lo:hi] {
		delete(m.ids, p.id)
	}
	n := copy(q.txs[lo:], q.txs[hi:])
	for k := lo + n; k < len(q.txs); k++ {
		q.txs[k] = pooled{} // let the transactions go
	}
	q.txs = q.txs[:lo+n]
}

// Select returns up to max transactions that apply cleanly, in order,
// against state st: highest fee first, respecting per-sender nonce
// sequences. Transactions that cannot currently apply (nonce gap,
// insufficient balance) are left in the pool; transactions that never will
// are evicted — a bad signature, a coinbase shape, or a nonce st has
// already spent. A same-nonce conflict's loser is stepped over, so the
// sender's later nonces are still candidates.
func (m *Mempool) Select(st *State, max int) []*Tx {
	live := m.queues[:0]
	for _, q := range m.queues {
		next := st.Nonce(q.from)
		spent := sort.Search(len(q.txs), func(k int) bool { return q.txs[k].tx.Nonce >= next })
		m.evict(q, 0, spent)
		if len(q.txs) == 0 {
			delete(m.bySender, q.from)
			m.spare = append(m.spare, q)
			continue
		}
		q.cur, q.stale = 0, true
		live = append(live, q)
	}
	for k := len(live); k < len(m.queues); k++ {
		m.queues[k] = nil
	}
	m.queues = live

	// Pick the best ready head, apply it, and settle again only the queues
	// the pick can have changed: its sender's, and its recipient's, whose
	// balance grew.
	work := &m.work
	work.copyFrom(st)
	out := make([]*Tx, 0, min(max, len(m.ids)))
	for len(out) < max {
		var best *senderQueue
		for _, q := range m.queues {
			if q.stale {
				m.settle(q, work)
			}
			if q.ready && (best == nil || q.txs[q.cur].outbids(best.txs[best.cur])) {
				best = q
			}
		}
		if best == nil {
			break
		}
		tx := best.txs[best.cur].tx
		if err := work.applyTx(tx, best.txs[best.cur].id); err != nil {
			break // should not happen: settle found it ready
		}
		out = append(out, tx)
		best.cur++
		best.stale = true
		if to := m.bySender[tx.To]; to != nil {
			to.stale = true
		}
	}
	return out
}

// settle moves q.cur to the sender's next candidate against the working
// state and records whether it applies. Entries below the working nonce
// lost a same-nonce conflict to a pick of this Select and are stepped over;
// a candidate that can never be mined is evicted.
func (m *Mempool) settle(q *senderQueue, work *State) {
	q.stale, q.ready = false, false
	acct := work.get(q.from)
	for q.cur < len(q.txs) {
		tx := q.txs[q.cur].tx
		switch {
		case tx.Nonce < acct.nonce:
			q.cur++
		case tx.IsCoinbase() || tx.checkSig(q.txs[q.cur].id) != nil:
			m.evict(q, q.cur, q.cur+1)
		default:
			q.ready = acct.canSpend(tx)
			return
		}
	}
}

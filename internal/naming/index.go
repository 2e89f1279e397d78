package naming

import (
	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Event records one accepted operation in a name's history.
type Event struct {
	Height uint64
	Op     string
	Owner  chain.Address
	Value  []byte
}

// Record is the current state of one name.
type Record struct {
	Name         string
	Owner        chain.Address
	Value        []byte
	RegisteredAt uint64
	ExpiresAt    uint64 // block height at which the name lapses
	History      []Event
}

// preorderEntry tracks an unconsumed preorder commitment.
type preorderEntry struct {
	sender chain.Address
	height uint64
}

// Index is the deterministic replay of all name operations along a chain's
// best branch — Blockstack's "virtualchain" state. Rebuild after head
// changes; replay is deterministic, so all replicas agree.
type Index struct {
	cfg         Config
	height      uint64
	names       map[string]*Record
	preorders   map[cryptoutil.Hash]preorderEntry
	namespaces  map[string]*Namespace
	nsPreorders map[cryptoutil.Hash]preorderEntry
	// rejected counts ops that were syntactically valid but violated the
	// naming rules (useful in attack experiments).
	rejected int
}

// BuildIndex replays the best chain of c under the given rules.
func BuildIndex(c *chain.Chain, cfg Config) *Index {
	idx := &Index{
		cfg:         cfg,
		names:       map[string]*Record{},
		preorders:   map[cryptoutil.Hash]preorderEntry{},
		namespaces:  map[string]*Namespace{},
		nsPreorders: map[cryptoutil.Hash]preorderEntry{},
	}
	for _, b := range c.BestBlocks() {
		idx.applyBlock(b)
	}
	return idx
}

func (idx *Index) applyBlock(b *chain.Block) {
	h := b.Header.Height
	idx.height = h
	for _, tx := range b.Txs {
		if tx.Kind != chain.KindNameOp || tx.IsCoinbase() {
			continue
		}
		op, err := DecodeOp(tx.Payload)
		if err != nil {
			idx.rejected++
			continue
		}
		if !idx.applyOp(op, tx, h) {
			idx.rejected++
		}
	}
}

func (idx *Index) applyOp(op *Op, tx *chain.Tx, height uint64) bool {
	switch op.Op {
	case OpNamespacePreorder, OpNamespaceReveal, OpNamespaceReady:
		return idx.applyNamespaceOp(op, tx, height)
	case OpPreorder:
		if op.Commitment.IsZero() {
			return false
		}
		if _, exists := idx.preorders[op.Commitment]; exists {
			return false // first preorder wins
		}
		idx.preorders[op.Commitment] = preorderEntry{sender: tx.From, height: height}
		return true

	case OpRegister:
		if !ValidName(op.Name) {
			return false
		}
		com := Commitment(op.Name, op.Salt, tx.From)
		pre, ok := idx.preorders[com]
		if !ok || pre.sender != tx.From {
			return false
		}
		age := height - pre.height
		if age < idx.cfg.MinPreorderAge || age > idx.cfg.PreorderTTL {
			return false
		}
		if rec, exists := idx.names[op.Name]; exists && height < rec.ExpiresAt {
			return false // name taken and unexpired
		}
		fee, period, ok := idx.effectiveRules(op.Name)
		if !ok || tx.Fee < fee {
			return false
		}
		delete(idx.preorders, com)
		rec := &Record{
			Name:         op.Name,
			Owner:        tx.From,
			Value:        op.Value,
			RegisteredAt: height,
			ExpiresAt:    height + period,
		}
		rec.History = append(rec.History, Event{Height: height, Op: OpRegister, Owner: tx.From, Value: op.Value})
		idx.names[op.Name] = rec
		return true

	case OpUpdate:
		rec := idx.ownedBy(op.Name, tx.From, height)
		if rec == nil {
			return false
		}
		rec.Value = op.Value
		rec.History = append(rec.History, Event{Height: height, Op: OpUpdate, Owner: tx.From, Value: op.Value})
		return true

	case OpTransfer:
		rec := idx.ownedBy(op.Name, tx.From, height)
		if rec == nil || op.NewOwner.IsZero() {
			return false
		}
		rec.Owner = op.NewOwner
		rec.History = append(rec.History, Event{Height: height, Op: OpTransfer, Owner: op.NewOwner, Value: rec.Value})
		return true
	}
	return false
}

// ownedBy returns the record if name exists, is unexpired at height, and is
// owned by addr.
func (idx *Index) ownedBy(name string, addr chain.Address, height uint64) *Record {
	rec, ok := idx.names[name]
	if !ok || rec.Owner != addr || height >= rec.ExpiresAt {
		return nil
	}
	return rec
}

// Resolve returns the record for a name if it is registered and unexpired
// at the index height.
func (idx *Index) Resolve(name string) (*Record, bool) {
	rec, ok := idx.names[name]
	if !ok || idx.height >= rec.ExpiresAt {
		return nil, false
	}
	return rec, true
}

// ResolveOwner is a convenience returning just the owner address.
func (idx *Index) ResolveOwner(name string) (chain.Address, bool) {
	rec, ok := idx.Resolve(name)
	if !ok {
		return chain.Address{}, false
	}
	return rec.Owner, true
}

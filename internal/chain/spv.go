package chain

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
)

// Light-client (SPV) support. The paper's §3.1 naming discussion assumes
// users can verify name state without storing the "endless ledger"; SPV is
// how deployed blockchain naming systems (Namecoin's name resolution,
// Blockstack's thin clients) achieve that: download headers only and
// verify cumulative work. X13 runs it to price a resolver's storage
// against a full node's.

// HeaderChain is a light client: it stores only block headers, validates
// proof-of-work and linkage, and tracks cumulative work. Its storage
// footprint is a constant ~120 bytes per block instead of full blocks —
// the practical answer to §3.1's "endless ledger problem" for name
// *resolvers* (miners still bear the full ledger).
type HeaderChain struct {
	headers map[cryptoutil.Hash]Header
	work    map[cryptoutil.Hash]work
	head    cryptoutil.Hash
}

// NewHeaderChain creates a light client anchored at the same deterministic
// genesis as NewChain(cfg).
func NewHeaderChain(cfg Config) *HeaderChain {
	genesis := Block{Header: Header{Difficulty: 1}}
	gh := genesis.Hash()
	hc := &HeaderChain{
		headers: map[cryptoutil.Hash]Header{gh: genesis.Header},
		work:    map[cryptoutil.Hash]work{gh: {}},
		head:    gh,
	}
	return hc
}

// Errors returned by AddHeader.
var (
	ErrHeaderUnknownParent = errors.New("chain: header has unknown parent")
	ErrHeaderBadPoW        = errors.New("chain: header fails proof of work")
)

// AddHeader validates and connects one header. It does not check a
// header's difficulty against its parent's, as a full node does: a light
// client keeps the SPV trust model and verifies PoW, linkage, and monotonic
// time only.
func (hc *HeaderChain) AddHeader(h Header) error {
	hash := h.Hash()
	if _, ok := hc.headers[hash]; ok {
		return ErrDuplicate
	}
	parent, ok := hc.headers[h.Prev]
	if !ok {
		return ErrHeaderUnknownParent
	}
	if h.Height != parent.Height+1 || h.Time < parent.Time {
		return fmt.Errorf("chain: header %s: bad height/time", hash.Short())
	}
	if !h.MeetsTarget() {
		return ErrHeaderBadPoW
	}
	hc.headers[hash] = h
	w := hc.work[h.Prev].plus(h.Difficulty)
	hc.work[hash] = w
	if w.exceeds(hc.work[hc.head]) {
		hc.head = hash
	}
	return nil
}

// Sync ingests the best-chain headers of a full node, returning how many
// headers were newly connected.
func (hc *HeaderChain) Sync(c *Chain) int {
	added := 0
	for _, b := range c.BestBlocks() {
		if err := hc.AddHeader(b.Header); err == nil {
			added++
		}
	}
	return added
}

// HeaderBytes returns the light client's storage footprint in bytes.
func (hc *HeaderChain) HeaderBytes() int64 {
	return int64(headerSize * len(hc.headers))
}

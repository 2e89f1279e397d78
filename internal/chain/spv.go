package chain

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cryptoutil"
)

// Light-client (SPV) support. The paper's §3.1 naming discussion assumes
// users can verify name state without storing the "endless ledger"; SPV is
// how deployed blockchain naming systems (Namecoin's name resolution,
// Blockstack's thin clients) achieve that: download headers only, verify
// cumulative work, and check transaction inclusion with Merkle proofs
// against a header's transaction root.

// TxProof proves a transaction's inclusion in a specific block.
type TxProof struct {
	BlockHash cryptoutil.Hash
	Header    Header
	Tx        *Tx
	Merkle    *cryptoutil.MerkleProof
}

// ProveTx builds an inclusion proof for the transaction with the given ID
// on the best chain, or an error if it is not found.
func (c *Chain) ProveTx(id cryptoutil.Hash) (*TxProof, error) {
	tx, b := c.FindTx(id)
	if tx == nil {
		return nil, fmt.Errorf("chain: tx %s not on best chain", id.Short())
	}
	leaves := make([][]byte, len(b.Txs))
	idx := -1
	for i, t := range b.Txs {
		tid := t.ID()
		leaves[i] = tid[:]
		if tid == id {
			idx = i
		}
	}
	tree, err := cryptoutil.NewMerkleTree(leaves)
	if err != nil {
		return nil, err
	}
	proof, err := tree.Prove(idx)
	if err != nil {
		return nil, err
	}
	return &TxProof{BlockHash: b.Hash(), Header: b.Header, Tx: tx, Merkle: proof}, nil
}

// HeaderChain is a light client: it stores only block headers, validates
// proof-of-work and linkage, tracks cumulative work, and verifies
// transaction inclusion proofs. Its storage footprint is a constant ~120
// bytes per block instead of full blocks — the practical answer to
// §3.1's "endless ledger problem" for name *resolvers* (miners still bear
// the full ledger).
type HeaderChain struct {
	headers map[cryptoutil.Hash]Header
	work    map[cryptoutil.Hash]*big.Int
	head    cryptoutil.Hash
	genesis cryptoutil.Hash
}

// NewHeaderChain creates a light client anchored at the same deterministic
// genesis as NewChain(cfg).
func NewHeaderChain(cfg Config) *HeaderChain {
	genesis := Block{Header: Header{Difficulty: 1}}
	gh := genesis.Hash()
	hc := &HeaderChain{
		headers: map[cryptoutil.Hash]Header{gh: genesis.Header},
		work:    map[cryptoutil.Hash]*big.Int{gh: big.NewInt(0)},
		head:    gh,
		genesis: gh,
	}
	return hc
}

// Errors returned by AddHeader.
var (
	ErrHeaderUnknownParent = errors.New("chain: header has unknown parent")
	ErrHeaderBadPoW        = errors.New("chain: header fails proof of work")
)

// AddHeader validates and connects one header. Difficulty-retarget
// correctness is not re-derived (a light client cannot compute it without
// timestamps of every branch — it has them, but we keep the SPV trust
// model honest and verify PoW, linkage, and monotonic time only).
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
	hc.work[hash] = new(big.Int).Add(hc.work[h.Prev], Work(h.Difficulty))
	if hc.work[hash].Cmp(hc.work[hc.head]) > 0 {
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

// Head returns the best known header and its hash.
func (hc *HeaderChain) Head() (Header, cryptoutil.Hash) { return hc.headers[hc.head], hc.head }

// Height returns the best header height.
func (hc *HeaderChain) Height() uint64 { return hc.headers[hc.head].Height }

// HasHeader reports whether a block hash is known.
func (hc *HeaderChain) HasHeader(h cryptoutil.Hash) bool { _, ok := hc.headers[h]; return ok }

// NumHeaders returns how many headers are stored (all branches).
func (hc *HeaderChain) NumHeaders() int { return len(hc.headers) }

// Confirmations returns how deep a block is under the best header (0 if
// unknown or not an ancestor).
func (hc *HeaderChain) Confirmations(h cryptoutil.Hash) uint64 {
	target, ok := hc.headers[h]
	if !ok {
		return 0
	}
	cur := hc.headers[hc.head]
	curHash := hc.head
	for cur.Height > target.Height {
		curHash = cur.Prev
		cur = hc.headers[curHash]
	}
	if curHash != h {
		return 0
	}
	return hc.headers[hc.head].Height - target.Height + 1
}

// VerifyTx checks a transaction inclusion proof against the light client's
// header set: the header must be known (and therefore PoW-checked), the
// transaction's signature must verify, and the Merkle proof must link the
// transaction ID to the header's root. It returns the confirmation depth.
func (hc *HeaderChain) VerifyTx(p *TxProof) (uint64, error) {
	if p == nil || p.Tx == nil {
		return 0, errors.New("chain: nil tx proof")
	}
	stored, ok := hc.headers[p.BlockHash]
	if !ok {
		return 0, fmt.Errorf("chain: proof block %s unknown to light client", p.BlockHash.Short())
	}
	if stored.Hash() != p.Header.Hash() {
		return 0, errors.New("chain: proof header mismatch")
	}
	id := p.Tx.ID()
	if err := p.Tx.checkSig(id); err != nil {
		return 0, err
	}
	if !cryptoutil.VerifyProof(stored.MerkleRoot, id[:], p.Merkle) {
		return 0, errors.New("chain: merkle proof invalid")
	}
	conf := hc.Confirmations(p.BlockHash)
	if conf == 0 {
		return 0, errors.New("chain: proof block not on light client's best chain")
	}
	return conf, nil
}

// HeaderBytes returns the light client's storage footprint in bytes.
func (hc *HeaderChain) HeaderBytes() int64 {
	return int64(headerSize * len(hc.headers))
}

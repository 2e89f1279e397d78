package chain

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/cryptoutil"
)

// Header is the proof-of-work-committed part of a block.
type Header struct {
	Prev       cryptoutil.Hash
	MerkleRoot cryptoutil.Hash
	Height     uint64
	// Time is the block's virtual timestamp in nanoseconds of simulation
	// time (simnet durations cast to int64).
	Time int64
	// Difficulty is the expected number of hash evaluations to find a
	// valid nonce; the target is 2²⁵⁶ / Difficulty.
	Difficulty uint64
	Nonce      uint64
}

// headerSize is the length of a header's encoding; the nonce is its last
// eight bytes.
const headerSize = 32 + 32 + 4*8

func (h *Header) encode() (buf [headerSize]byte) {
	copy(buf[0:], h.Prev[:])
	copy(buf[32:], h.MerkleRoot[:])
	binary.BigEndian.PutUint64(buf[64:], h.Height)
	binary.BigEndian.PutUint64(buf[72:], uint64(h.Time))
	binary.BigEndian.PutUint64(buf[80:], h.Difficulty)
	binary.BigEndian.PutUint64(buf[88:], h.Nonce)
	return buf
}

// Hash returns the block identifier: the SHA-256 of the header encoding.
func (h *Header) Hash() cryptoutil.Hash {
	buf := h.encode()
	return cryptoutil.SumHash(buf[:])
}

// Block is a header plus its transactions; the first transaction must be
// the coinbase.
type Block struct {
	Header Header
	Txs    []*Tx
}

// Hash returns the block's identifier.
func (b *Block) Hash() cryptoutil.Hash { return b.Header.Hash() }

// WireSize returns the simulated size of the block in bytes: header plus
// all transactions. Chain.TotalBytes sums this to track the paper's
// "endless ledger" growth.
func (b *Block) WireSize() int {
	size := headerSize
	for _, tx := range b.Txs {
		size += tx.WireSize()
	}
	return size
}

// stackTxs is how many transaction IDs a Merkle root is computed over on
// the stack; a larger block makes one heap allocation.
const stackTxs = 64

// hashRoom returns n hashes of space: scratch's when it holds n, else a
// fresh heap slice.
func hashRoom(scratch []cryptoutil.Hash, n int) []cryptoutil.Hash {
	if n > len(scratch) {
		return make([]cryptoutil.Hash, n)
	}
	return scratch[:n]
}

// txMerkleRoot computes the Merkle root over the block's transaction IDs.
func txMerkleRoot(txs []*Tx) cryptoutil.Hash {
	var scratch [stackTxs]cryptoutil.Hash
	ids := hashRoom(scratch[:], len(txs))
	for i, tx := range txs {
		ids[i] = tx.ID()
	}
	return cryptoutil.MerkleRootOf(ids)
}

// idsMerkleRoot is txMerkleRoot over IDs already computed, which it leaves
// intact.
func idsMerkleRoot(ids []cryptoutil.Hash) cryptoutil.Hash {
	var scratch [stackTxs]cryptoutil.Hash
	level := hashRoom(scratch[:], len(ids))
	copy(level, ids)
	return cryptoutil.MerkleRootOf(level)
}

// workTarget returns the highest hash value that satisfies difficulty d,
// ⌊2²⁵⁶/d⌋, as the 32 big-endian bytes a hash is compared against. At
// difficulty 0 or 1 the quotient is 2²⁵⁶ itself, which every hash is below:
// the all-ones target says the same.
func workTarget(d uint64) (target cryptoutil.Hash) {
	if d <= 1 {
		for i := range target {
			target[i] = 0xFF
		}
		return target
	}
	// Long division of the five-limb 2²⁵⁶ by d: the leading limb, 1, is
	// below d and becomes the first remainder.
	rem := uint64(1)
	for i := 0; i < len(target); i += 8 {
		var q uint64
		q, rem = bits.Div64(rem, 0, d)
		binary.BigEndian.PutUint64(target[i:], q)
	}
	return target
}

// MeetsTarget reports whether the header's hash satisfies its difficulty.
func (h *Header) MeetsTarget() bool {
	hash, target := h.Hash(), workTarget(h.Difficulty)
	return bytes.Compare(hash[:], target[:]) <= 0
}

// grinder is the part of a Grind's working set that can be reused: a
// SHA-256 digest, the header's encoding, and the sum. Pooled, a grind
// allocates only its saved midstate. (encoding.BinaryAppender would save it
// into reused room too, but needs go1.24 and go.mod says 1.22.)
type grinder struct {
	d   hash.Hash
	buf [headerSize]byte
	sum []byte
}

var grinders = sync.Pool{New: func() any {
	return &grinder{d: sha256.New(), sum: make([]byte, 0, sha256.Size)}
}}

// Grind searches nonces (starting from the current one) until the header
// meets its target, mutating the header in place. With the modest
// difficulties simulations use this is a few thousand hash evaluations.
//
// The first 64 bytes of the encoding, Prev and MerkleRoot, are one SHA-256
// block no try changes. Grind compresses it once, saves the digest's state
// (its midstate) and restores it for each try, so a try compresses one
// block: the 32 bytes of Height, Time, Difficulty and Nonce, with the
// padding. Only the nonce's eight bytes change between tries, and the
// nonces are tried in the order Hash would be, so the search ends where
// hashing each whole encoding would end it.
func (h *Header) Grind() {
	target := workTarget(h.Difficulty)
	g := grinders.Get().(*grinder)
	defer grinders.Put(g)
	g.buf = h.encode()
	g.d.Reset()
	g.d.Write(g.buf[:sha256.BlockSize])
	// The saved state is the digest's own, so neither call can fail.
	mid, _ := g.d.(encoding.BinaryMarshaler).MarshalBinary()
	restore := g.d.(encoding.BinaryUnmarshaler)
	for {
		_ = restore.UnmarshalBinary(mid)
		g.d.Write(g.buf[sha256.BlockSize:])
		g.sum = g.d.Sum(g.sum[:0])
		if bytes.Compare(g.sum, target[:]) <= 0 {
			return
		}
		h.Nonce++
		binary.BigEndian.PutUint64(g.buf[headerSize-8:], h.Nonce)
	}
}

// Work returns the expected-hash contribution of a block at difficulty d,
// used for heaviest-chain fork choice.
func Work(d uint64) *big.Int { return new(big.Int).SetUint64(d) }

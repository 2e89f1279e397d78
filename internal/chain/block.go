package chain

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"

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
	// Difficulty is the block's work in expected hash evaluations, charged
	// in virtual time; the host seals it against a target of at most
	// sealWork expected hashes (see MeetsTarget).
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

// sealWork is the most expected hashes a header's seal costs the host.
// Difficulty is the block's work in virtual time: it sets the discovery
// delay and fork choice, while the seal is checked against
// the target of min(Difficulty, sealWork), so a header with an arbitrary
// nonce still fails about fifteen times in sixteen.
const sealWork = 16

// sealTarget returns the target the header's hash is sealed against.
func (h *Header) sealTarget() cryptoutil.Hash {
	return workTarget(min(h.Difficulty, sealWork))
}

// MeetsTarget reports whether the header's hash satisfies its seal target.
func (h *Header) MeetsTarget() bool {
	hash, target := h.Hash(), h.sealTarget()
	return bytes.Compare(hash[:], target[:]) <= 0
}

// Grind searches nonces (starting from the current one, wrapping past
// 2⁶⁴−1) until the header meets its seal target, mutating the header in
// place: about min(Difficulty, sealWork) hash evaluations.
func (h *Header) Grind() {
	target, buf := h.sealTarget(), h.encode()
	for {
		hash := cryptoutil.SumHash(buf[:])
		if bytes.Compare(hash[:], target[:]) <= 0 {
			return
		}
		h.Nonce++
		binary.BigEndian.PutUint64(buf[headerSize-8:], h.Nonce)
	}
}

// work is cumulative expected hash evaluations, the quantity fork choice
// compares: a 128-bit value, so a sum stays exact for 2⁶⁴ blocks at the
// largest difficulty.
type work struct{ hi, lo uint64 }

// plus returns w with a block of difficulty d added.
func (w work) plus(d uint64) work {
	lo, carry := bits.Add64(w.lo, d, 0)
	return work{hi: w.hi + carry, lo: lo}
}

// exceeds reports whether w is strictly more work than o.
func (w work) exceeds(o work) bool {
	return w.hi > o.hi || (w.hi == o.hi && w.lo > o.lo)
}

// big returns w as a fresh big.Int.
func (w work) big() *big.Int {
	b := new(big.Int).SetUint64(w.hi)
	return b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(w.lo))
}

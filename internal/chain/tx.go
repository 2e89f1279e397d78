// Package chain implements a from-scratch proof-of-work blockchain: signed
// account-model transactions, Merkle-committed blocks at a fixed
// difficulty, heaviest-chain fork choice with reorg support, a fee-ordered
// mempool, and simulated miners that run over internal/simnet.
//
// The paper (§3.1, §3.3) treats blockchains as the enabling substrate for
// decentralized naming and storage incentives: "cryptographically auditable,
// append-only ledgers [that] allow users to publicly register a name …
// blockchains essentially trade scalability and performance for global
// consensus and security." This package provides exactly that ledger, plus
// the weaknesses the paper lists so they can be measured: the 51 % attack
// (Miner.Withhold + experiment X2), wasteful mining (WorkExpended), and the
// endless-ledger problem (Chain.TotalBytes).
//
// Proof-of-work is charged in virtual time: a miner with hashrate R at
// difficulty D finds blocks after Exp(D/R) of virtual time, and D is the
// block's weight in fork choice. Blocks still carry a
// nonce whose header hash validators check, but against a seal target of
// min(D, 16) expected hashes, so sealing a block costs the host about 16
// SHA-256 evaluations at any difficulty while fork choice and attacks
// behave as they would at that difficulty.
package chain

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"repro/internal/cryptoutil"
)

// Address identifies an account: the SHA-256 fingerprint of its ed25519
// public key.
type Address = cryptoutil.Hash

// Tx kinds. Payment moves value; the other kinds carry subsystem payloads
// (name operations, storage contracts) and are interpreted by the layers
// built on the chain. The chain itself validates signatures, nonces, and
// balances for every kind.
const (
	KindPayment  = "pay"
	KindNameOp   = "name"
	KindContract = "contract"
	KindAnchor   = "anchor" // arbitrary data commitment (e.g. zone file hash)
)

// Tx is one signed account-model transaction.
type Tx struct {
	From    Address
	FromPub ed25519.PublicKey
	To      Address
	Amount  uint64
	Fee     uint64
	Nonce   uint64 // must equal the sender's current account nonce
	Kind    string
	Payload []byte
	Sig     []byte

	// verified is the ID of the content Sign produced with a sound key
	// pair, whose signature therefore verifies; see CheckSig. Sign is the
	// only writer, and it runs before the transaction is handed to anyone,
	// so a Tx shared by reference between miners, on any number of engine
	// workers, is only ever read.
	verified cryptoutil.Hash
}

// txScratch sizes the stack buffer ID and SigHash encode into: a payment is
// 219 bytes, and anything longer (name operations, contracts) spills to the
// heap through append.
const txScratch = 512

// appendEncoding appends the transaction's deterministic serialization to
// buf; withSig controls whether the signature is included (the signing hash
// excludes it).
func (tx *Tx) appendEncoding(buf []byte, withSig bool) []byte {
	buf = append(buf, tx.From[:]...)
	buf = appendBytes(buf, tx.FromPub)
	buf = append(buf, tx.To[:]...)
	buf = binary.BigEndian.AppendUint64(buf, tx.Amount)
	buf = binary.BigEndian.AppendUint64(buf, tx.Fee)
	buf = binary.BigEndian.AppendUint64(buf, tx.Nonce)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(tx.Kind)))
	buf = append(buf, tx.Kind...)
	buf = appendBytes(buf, tx.Payload)
	if withSig {
		buf = appendBytes(buf, tx.Sig)
	}
	return buf
}

// appendBytes appends b behind its 8-byte length.
func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(b)))
	return append(buf, b...)
}

// SigHash returns the digest the sender signs.
func (tx *Tx) SigHash() cryptoutil.Hash {
	var scratch [txScratch]byte
	return cryptoutil.SumHash(tx.appendEncoding(scratch[:0], false))
}

// ID returns the transaction identifier (hash over the full encoding,
// signature included).
func (tx *Tx) ID() cryptoutil.Hash {
	var scratch [txScratch]byte
	return cryptoutil.SumHash(tx.appendEncoding(scratch[:0], true))
}

// WireSize returns the simulated wire size of the transaction in bytes: the
// length of its full encoding.
func (tx *Tx) WireSize() int {
	const fixed = 32 + 32 + 3*8 // From, To, Amount, Fee, Nonce
	return fixed + 8 + len(tx.FromPub) + 8 + len(tx.Kind) + 8 + len(tx.Payload) + 8 + len(tx.Sig)
}

// IsCoinbase reports whether this is a block-reward transaction (zero
// sender, no signature).
func (tx *Tx) IsCoinbase() bool { return tx.From.IsZero() }

// Sign signs the transaction with the key pair, filling From, FromPub, and
// Sig. The pair's fingerprint becomes the sender address.
//
// When the pair is sound (cryptoutil.KeyPair.Sound) the signature is known
// to verify: From is the fingerprint of FromPub, and ed25519 signatures
// made with a key derived from its seed verify under its public half. Sign
// then records the transaction's ID as verified. With any other pair the
// record is cleared and the first CheckSig verifies for real.
func (tx *Tx) Sign(kp *cryptoutil.KeyPair) {
	tx.From = kp.Fingerprint()
	tx.FromPub = kp.Public
	h := tx.SigHash()
	tx.Sig = kp.Sign(h[:])
	tx.verified = cryptoutil.Hash{}
	if kp.Sound() {
		tx.verified = tx.ID()
	}
}

// CheckSig validates the signature and that FromPub matches From. Coinbase
// transactions have no signature and always pass.
//
// A transaction Sign made with a sound key pair passes on one SHA-256, its
// ID: the record is keyed by content, and the ID covers every field, Sig
// and FromPub included, so a transaction modified in place, or copied and
// then modified, has another ID and is verified afresh. Any other
// transaction — built field by field, received, or altered — runs the
// ~50 µs ed25519 check on every call. CheckSig writes nothing, so
// concurrent calls on one shared Tx are safe.
func (tx *Tx) CheckSig() error { return tx.checkSig(tx.ID()) }

// checkSig is CheckSig for a caller that already holds the transaction's
// ID.
func (tx *Tx) checkSig(id cryptoutil.Hash) error {
	if id == tx.verified || tx.IsCoinbase() {
		return nil
	}
	if cryptoutil.PublicFingerprint(tx.FromPub) != tx.From {
		return fmt.Errorf("chain: tx %s: public key does not match sender address", id.Short())
	}
	h := tx.SigHash()
	if !cryptoutil.Verify(tx.FromPub, h[:], tx.Sig) {
		return fmt.Errorf("chain: tx %s: invalid signature", id.Short())
	}
	return nil
}

// NewCoinbase builds the block-reward transaction paying amount to miner.
// height is mixed into the payload so coinbase IDs are unique per block.
func NewCoinbase(miner Address, amount, height uint64) *Tx {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, height)
	return &Tx{To: miner, Amount: amount, Kind: KindPayment, Payload: payload}
}

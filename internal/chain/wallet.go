package chain

import (
	"repro/internal/cryptoutil"
)

// Wallet wraps a key pair with local nonce tracking so that applications
// interleaving different transaction kinds (payments, name operations,
// storage contracts) on one account do not have to hand-sequence nonces —
// the friction that otherwise leaks into every multi-layer workflow.
type Wallet struct {
	key   *cryptoutil.KeyPair
	nonce uint64
}

// NewWallet creates a wallet for key starting at the given account nonce
// (read it from chain state with State().Nonce(addr)).
func NewWallet(key *cryptoutil.KeyPair, nonce uint64) *Wallet {
	return &Wallet{key: key, nonce: nonce}
}

// Address returns the wallet's account address.
func (w *Wallet) Address() Address { return w.key.Fingerprint() }

// NextNonce returns the current nonce and advances the counter; layers
// that build their own transactions call this to claim a slot.
func (w *Wallet) NextNonce() uint64 {
	n := w.nonce
	w.nonce++
	return n
}

// Pay builds a signed payment of amount to the recipient with the given
// fee.
func (w *Wallet) Pay(to Address, amount, fee uint64) *Tx {
	tx := &Tx{To: to, Amount: amount, Fee: fee, Kind: KindPayment, Nonce: w.NextNonce()}
	tx.Sign(w.key)
	return tx
}

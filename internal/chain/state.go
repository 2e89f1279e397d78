package chain

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/cryptoutil"
)

// account is one address's balance and next expected transaction nonce.
type account struct {
	addr    Address
	balance uint64
	nonce   uint64
}

// State is the account state at some block: balances and per-account
// transaction nonces, held as one slice sorted by address so that a lookup
// is a binary search and a copy is one append. States are immutable once
// attached to a block; transactions are applied to a copy.
type State struct {
	accounts []account
}

// NewState creates an empty state, optionally seeded with an initial
// allocation.
func NewState(alloc map[Address]uint64) *State {
	s := &State{accounts: make([]account, 0, len(alloc))}
	for addr, amt := range alloc { //determinism:ok sorted straight after
		s.accounts = append(s.accounts, account{addr: addr, balance: amt})
	}
	sort.Slice(s.accounts, func(i, j int) bool {
		return bytes.Compare(s.accounts[i].addr[:], s.accounts[j].addr[:]) < 0
	})
	return s
}

// copyFrom makes s a copy of o, in s's own slice when it has the room.
func (s *State) copyFrom(o *State) {
	s.accounts = append(s.accounts[:0], o.accounts...)
}

// find returns the position of addr in the sorted slice, or the position it
// would be inserted at, and whether it is present.
func (s *State) find(addr Address) (int, bool) {
	lo, hi := 0, len(s.accounts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(s.accounts[mid].addr[:], addr[:]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.accounts) && s.accounts[lo].addr == addr
}

// get returns addr's account, the zero account if it has none.
func (s *State) get(addr Address) account {
	if i, ok := s.find(addr); ok {
		return s.accounts[i]
	}
	return account{}
}

// touch returns addr's account for writing, creating it if need be. The
// pointer is good until the next touch.
func (s *State) touch(addr Address) *account {
	i, ok := s.find(addr)
	if !ok {
		s.accounts = append(s.accounts, account{})
		copy(s.accounts[i+1:], s.accounts[i:])
		s.accounts[i] = account{addr: addr}
	}
	return &s.accounts[i]
}

// Balance returns the balance of addr (zero for unknown accounts).
func (s *State) Balance(addr Address) uint64 { return s.get(addr).balance }

// Nonce returns the next expected nonce for addr.
func (s *State) Nonce(addr Address) uint64 { return s.get(addr).nonce }

// checkTx validates a non-coinbase transaction, whose ID the caller
// already holds, against the state without mutating it.
func (s *State) checkTx(tx *Tx, id cryptoutil.Hash) error {
	if err := tx.checkSig(id); err != nil {
		return err
	}
	if tx.IsCoinbase() {
		return fmt.Errorf("chain: coinbase tx %s outside block position 0", id.Short())
	}
	from := s.get(tx.From)
	if from.canSpend(tx) {
		return nil
	}
	switch need := tx.Amount + tx.Fee; {
	case tx.Nonce != from.nonce:
		return fmt.Errorf("chain: tx %s: nonce %d, want %d", id.Short(), tx.Nonce, from.nonce)
	case need < tx.Amount:
		return fmt.Errorf("chain: tx %s: amount+fee overflows", id.Short())
	default:
		return fmt.Errorf("chain: tx %s: balance %d < %d", id.Short(), from.balance, need)
	}
}

// canSpend is the state-dependent rule of checkTx: the nonce is the
// account's next, and the balance covers amount plus fee without overflow.
func (a account) canSpend(tx *Tx) bool {
	need := tx.Amount + tx.Fee
	return tx.Nonce == a.nonce && need >= tx.Amount && a.balance >= need
}

// applyTx validates and applies one non-coinbase transaction whose ID the
// caller already holds.
func (s *State) applyTx(tx *Tx, id cryptoutil.Hash) error {
	if err := s.checkTx(tx, id); err != nil {
		return err
	}
	from := s.touch(tx.From)
	from.balance -= tx.Amount + tx.Fee
	from.nonce++
	s.touch(tx.To).balance += tx.Amount
	return nil
}

// applyCoinbase credits the block reward; amount correctness is checked by
// the chain against subsidy+fees.
func (s *State) applyCoinbase(tx *Tx) {
	s.touch(tx.To).balance += tx.Amount
}

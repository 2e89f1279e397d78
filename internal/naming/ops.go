// Package naming implements blockchain-based name registration in the
// style the paper surveys in §3.1 (Namecoin, Emercoin, Blockstack): a
// preorder/register commitment scheme against front-running, updates,
// transfers, expiry, and length-based registration fees.
//
// Architecturally it follows Blockstack's "virtualchain" design: the
// blockchain (internal/chain) stores opaque, signed name operations; this
// package deterministically replays the best chain into a name index, so
// every replica derives the same name→key→value bindings. Consensus on
// names is exactly consensus on the chain.
//
// The package also contains the baselines the paper compares against: a
// centralized registrar (single server over simnet) and the Zooko-triangle
// property scores for all surveyed schemes.
package naming

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Op types.
const (
	OpPreorder = "preorder"
	OpRegister = "register"
	OpUpdate   = "update"
	OpTransfer = "transfer"
)

// Op is one name operation, carried as the payload of a chain.Tx with
// Kind == chain.KindNameOp. The transaction signature covers the payload,
// so ops inherit the sender's authentication.
type Op struct {
	Op string `json:"op"`
	// Commitment is H(name | salt | sender) for preorders.
	Commitment cryptoutil.Hash `json:"commitment,omitempty"`
	// Name/Salt reveal the preorder on register; Name alone identifies the
	// target for update/transfer.
	Name string `json:"name,omitempty"`
	Salt []byte `json:"salt,omitempty"`
	// Value is the name's bound data: conventionally the hash of a zone
	// file kept off-chain (Blockstack) or a small record (Namecoin).
	Value []byte `json:"value,omitempty"`
	// NewOwner receives the name on transfer.
	NewOwner chain.Address `json:"new_owner,omitempty"`
	// NSFee and NSPeriod carry a namespace's pricing rules on reveal.
	NSFee    uint64 `json:"ns_fee,omitempty"`
	NSPeriod uint64 `json:"ns_period,omitempty"`
}

// Encode serializes the op for a transaction payload.
func (o *Op) Encode() []byte {
	b, err := json.Marshal(o)
	if err != nil {
		panic("naming: op marshal cannot fail: " + err.Error())
	}
	return b
}

// DecodeOp parses an op payload; it returns an error for malformed bytes
// (such payloads are ignored by the index).
func DecodeOp(payload []byte) (*Op, error) {
	var o Op
	if err := json.Unmarshal(payload, &o); err != nil {
		return nil, fmt.Errorf("naming: decode op: %w", err)
	}
	return &o, nil
}

// Commitment computes the preorder commitment H(name | salt | sender).
func Commitment(name string, salt []byte, sender chain.Address) cryptoutil.Hash {
	return cryptoutil.SumHashes([]byte(name), salt, sender[:])
}

// ValidName reports whether a name is well-formed: 1–63 characters of
// lowercase letters, digits, hyphens, or dots, not beginning or ending
// with a separator.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 63 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		case r == '-' || r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(name, "-") && !strings.HasSuffix(name, "-") &&
		!strings.HasPrefix(name, ".") && !strings.HasSuffix(name, ".")
}

// Config sets the virtualchain rules.
type Config struct {
	// MinPreorderAge is how many blocks a preorder must age before the
	// matching register is accepted (anti-front-running).
	MinPreorderAge uint64
	// PreorderTTL is how many blocks a preorder stays claimable.
	PreorderTTL uint64
	// RegistrationPeriod is the name lifetime in blocks: once it lapses
	// the name is free to register again.
	RegistrationPeriod uint64
	// BaseFee is the registration fee for long names; shorter names cost
	// exponentially more (squatting deterrent, as deployed systems do).
	BaseFee uint64
}

// DefaultConfig returns the rules used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		MinPreorderAge:     1,
		PreorderTTL:        144,
		RegistrationPeriod: 1000,
		BaseFee:            10,
	}
}

// RequiredFee returns the registration fee for a name: BaseFee for
// names of 8+ characters, doubling for each character shorter.
func (c Config) RequiredFee(name string) uint64 {
	n := len(name)
	if n >= 8 {
		return c.BaseFee
	}
	fee := c.BaseFee
	for i := n; i < 8; i++ {
		fee *= 2
	}
	return fee
}

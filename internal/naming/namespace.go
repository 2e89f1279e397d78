package naming

import (
	"io"
	"strings"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Namespaces, Blockstack-style: the virtualchain supports user-created
// namespaces (".id", ".app", …) with their own pricing and lifetime rules.
// A namespace goes through the same commit/reveal discipline as a name —
// NAMESPACE_PREORDER (salted commitment), NAMESPACE_REVEAL (rules), and
// NAMESPACE_READY (opens for registrations) — so namespace identifiers
// cannot be front-run either. Names of the form "label.ns" require the
// "ns" namespace to be ready and are priced by its rules; bare names use
// the chain-wide defaults.

// Namespace op types (continuing the Op.Op vocabulary).
const (
	OpNamespacePreorder = "ns_preorder"
	OpNamespaceReveal   = "ns_reveal"
	OpNamespaceReady    = "ns_ready"
)

// Namespace is the revealed rule set of one namespace.
type Namespace struct {
	ID      string
	Creator chain.Address
	// BaseFee replaces Config.BaseFee for names in this namespace.
	BaseFee uint64
	// RegistrationPeriod replaces Config.RegistrationPeriod.
	RegistrationPeriod uint64
	RevealedAt         uint64
	Ready              bool
}

// NamespaceFee returns the cost of revealing a namespace: namespaces are
// scarcer than names, priced like the shortest names.
func (c Config) NamespaceFee() uint64 { return c.BaseFee * 256 }

// namespaceCommitment computes H(ns | salt | sender).
func namespaceCommitment(ns string, salt []byte, sender chain.Address) cryptoutil.Hash {
	return cryptoutil.SumHashes([]byte("ns:"), []byte(ns), salt, sender[:])
}

// ValidNamespaceID reports whether an identifier can name a namespace:
// 1–16 lowercase letters/digits, no separators.
func ValidNamespaceID(ns string) bool {
	if len(ns) == 0 || len(ns) > 16 {
		return false
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z':
		case r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return true
}

// SplitName separates "label.ns" into (label, ns); names without a dot
// return ns == "".
func SplitName(name string) (label, ns string) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return name, ""
	}
	return name[:i], name[i+1:]
}

// NamespacePreorder builds the namespace commitment transaction.
func (cl *Client) NamespacePreorder(ns string) (*chain.Tx, error) {
	salt := make([]byte, 16)
	if _, err := io.ReadFull(cl.rand, salt); err != nil {
		return nil, err
	}
	cl.salts["ns:"+ns] = salt
	op := &Op{Op: OpNamespacePreorder, Commitment: namespaceCommitment(ns, salt, cl.Address())}
	return cl.sign(op, 1), nil
}

// NamespaceReveal builds the reveal transaction carrying the namespace's
// pricing rules; it pays the namespace fee.
func (cl *Client) NamespaceReveal(ns string, baseFee, registrationPeriod uint64) *chain.Tx {
	op := &Op{
		Op:       OpNamespaceReveal,
		Name:     ns,
		Salt:     cl.salts["ns:"+ns],
		NSFee:    baseFee,
		NSPeriod: registrationPeriod,
	}
	return cl.sign(op, cl.cfg.NamespaceFee())
}

// NamespaceReady builds the launch transaction opening the namespace.
func (cl *Client) NamespaceReady(ns string) *chain.Tx {
	return cl.sign(&Op{Op: OpNamespaceReady, Name: ns}, 1)
}

// Namespace returns a revealed namespace's rules, if present.
func (idx *Index) Namespace(ns string) (*Namespace, bool) {
	n, ok := idx.namespaces[ns]
	return n, ok
}

// effectiveRules returns the fee and registration period applying to a
// name, looking through its namespace (if any). ok is false when the name
// references a namespace that is not ready.
func (idx *Index) effectiveRules(name string) (fee uint64, period uint64, ok bool) {
	_, ns := SplitName(name)
	if ns == "" {
		return idx.cfg.RequiredFee(name), idx.cfg.RegistrationPeriod, true
	}
	n, exists := idx.namespaces[ns]
	if !exists {
		// Unclaimed suffix: the name is an ordinary dotted name under the
		// chain-wide default rules (backwards compatible — namespaces only
		// change the rules once someone registers them).
		return idx.cfg.RequiredFee(name), idx.cfg.RegistrationPeriod, true
	}
	if !n.Ready {
		return 0, 0, false
	}
	// Apply the namespace's base fee through the same length curve, using
	// the label length (the namespace suffix is fixed cost).
	label, _ := SplitName(name)
	scaled := Config{BaseFee: n.BaseFee}
	return scaled.RequiredFee(label), n.RegistrationPeriod, true
}

func (idx *Index) applyNamespaceOp(op *Op, tx *chain.Tx, height uint64) bool {
	switch op.Op {
	case OpNamespacePreorder:
		if op.Commitment.IsZero() {
			return false
		}
		if _, exists := idx.nsPreorders[op.Commitment]; exists {
			return false
		}
		idx.nsPreorders[op.Commitment] = preorderEntry{sender: tx.From, height: height}
		return true

	case OpNamespaceReveal:
		if !ValidNamespaceID(op.Name) || op.NSFee == 0 || op.NSPeriod == 0 {
			return false
		}
		com := namespaceCommitment(op.Name, op.Salt, tx.From)
		pre, ok := idx.nsPreorders[com]
		if !ok || pre.sender != tx.From {
			return false
		}
		age := height - pre.height
		if age < idx.cfg.MinPreorderAge || age > idx.cfg.PreorderTTL {
			return false
		}
		if _, taken := idx.namespaces[op.Name]; taken {
			return false
		}
		if tx.Fee < idx.cfg.NamespaceFee() {
			return false
		}
		delete(idx.nsPreorders, com)
		idx.namespaces[op.Name] = &Namespace{
			ID:                 op.Name,
			Creator:            tx.From,
			BaseFee:            op.NSFee,
			RegistrationPeriod: op.NSPeriod,
			RevealedAt:         height,
		}
		return true

	case OpNamespaceReady:
		n, ok := idx.namespaces[op.Name]
		if !ok || n.Creator != tx.From || n.Ready {
			return false
		}
		n.Ready = true
		return true
	}
	return false
}

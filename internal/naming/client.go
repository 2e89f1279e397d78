package naming

import (
	"io"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Client builds signed name-operation transactions for one identity. It
// tracks the account nonce locally; callers submit the transactions
// through a miner or wallet.
type Client struct {
	cfg   Config
	key   *cryptoutil.KeyPair
	nonce uint64
	rand  io.Reader
	// salts remembers the salt used for each pending preorder so Register
	// can reveal it.
	salts map[string][]byte
}

// NewClient creates a transaction builder for the key pair. rand supplies
// preorder salts; nonce must match the account's current chain nonce.
func NewClient(key *cryptoutil.KeyPair, cfg Config, rand io.Reader, nonce uint64) *Client {
	return &Client{cfg: cfg, key: key, rand: rand, nonce: nonce, salts: map[string][]byte{}}
}

// Address returns the client's account address.
func (cl *Client) Address() chain.Address { return cl.key.Fingerprint() }

// SetNonce resynchronizes the local nonce with chain state.
func (cl *Client) SetNonce(n uint64) { cl.nonce = n }

func (cl *Client) sign(op *Op, fee uint64) *chain.Tx {
	tx := &chain.Tx{
		Kind:    chain.KindNameOp,
		Fee:     fee,
		Nonce:   cl.nonce,
		Payload: op.Encode(),
	}
	tx.Sign(cl.key)
	cl.nonce++
	return tx
}

// Preorder builds the commitment transaction for a name. The salt is drawn
// from the client's entropy source and retained for the later Register.
func (cl *Client) Preorder(name string) (*chain.Tx, error) {
	salt := make([]byte, 16)
	if _, err := io.ReadFull(cl.rand, salt); err != nil {
		return nil, err
	}
	cl.salts[name] = salt
	op := &Op{Op: OpPreorder, Commitment: Commitment(name, salt, cl.Address())}
	return cl.sign(op, 1), nil
}

// Register builds the reveal transaction, paying the default length-based
// fee. It must follow a Preorder for the same name from this client. For
// names inside a custom namespace, whose fee differs, use RegisterWithFee
// with the fee obtained from an Index.
func (cl *Client) Register(name string, value []byte) *chain.Tx {
	return cl.RegisterWithFee(name, value, cl.cfg.RequiredFee(name))
}

// RegisterWithFee builds the reveal transaction with an explicit fee
// (namespace pricing is defined on-chain, so clients consult an Index for
// the effective fee before registering).
func (cl *Client) RegisterWithFee(name string, value []byte, fee uint64) *chain.Tx {
	op := &Op{Op: OpRegister, Name: name, Salt: cl.salts[name], Value: value}
	return cl.sign(op, fee)
}

// Update builds a value-update transaction for an owned name.
func (cl *Client) Update(name string, value []byte) *chain.Tx {
	return cl.sign(&Op{Op: OpUpdate, Name: name, Value: value}, 1)
}

// Transfer builds an ownership-transfer transaction.
func (cl *Client) Transfer(name string, newOwner chain.Address) *chain.Tx {
	return cl.sign(&Op{Op: OpTransfer, Name: name, NewOwner: newOwner}, 1)
}

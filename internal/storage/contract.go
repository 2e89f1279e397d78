package storage

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
)

// Contract is a storage service agreement in the style of Sia/Filecoin
// (§3.3: "a contract is an object that defines a service agreement between
// two parties … information about storage and retrieval, pricing, and
// proof-of-storage requirements"). It is anchored on the blockchain as a
// KindContract transaction signed by the client; payments settle as
// ordinary chain payments per proven epoch.
type Contract struct {
	Client   chain.Address   `json:"client"`
	Provider chain.Address   `json:"provider"`
	FileID   cryptoutil.Hash `json:"file_id"`
	// SizeBytes is the contracted storage amount.
	SizeBytes int64 `json:"size_bytes"`
	// PricePerEpoch is paid for every epoch with a passing audit.
	PricePerEpoch uint64 `json:"price_per_epoch"`
	// Epochs is the contract duration.
	Epochs int `json:"epochs"`
	// ProofEvery is how many blocks between required proofs (informational
	// in the simulation; audits are driven by the client clock).
	ProofEvery int `json:"proof_every"`
}

func (ct *Contract) encode() []byte {
	b, err := json.Marshal(ct)
	if err != nil {
		panic("storage: contract marshal cannot fail: " + err.Error())
	}
	return b
}

// DecodeContract parses a contract payload.
func DecodeContract(payload []byte) (*Contract, error) {
	var ct Contract
	if err := json.Unmarshal(payload, &ct); err != nil {
		return nil, fmt.Errorf("storage: decode contract: %w", err)
	}
	return &ct, nil
}

// AnchorTx builds the signed transaction that publishes the contract
// on-chain. nonce must be the client's current account nonce.
func (ct *Contract) AnchorTx(clientKey *cryptoutil.KeyPair, nonce uint64) *chain.Tx {
	tx := &chain.Tx{
		Kind:    chain.KindContract,
		Fee:     1,
		Nonce:   nonce,
		Payload: ct.encode(),
	}
	tx.Sign(clientKey)
	return tx
}

// PaymentTx builds the per-epoch settlement payment from client to
// provider.
func (ct *Contract) PaymentTx(clientKey *cryptoutil.KeyPair, nonce uint64) *chain.Tx {
	tx := &chain.Tx{
		To:     ct.Provider,
		Amount: ct.PricePerEpoch,
		Fee:    1,
		Nonce:  nonce,
		Kind:   chain.KindPayment,
	}
	tx.Sign(clientKey)
	return tx
}

// ContractsOnChain scans the best chain for anchored contracts, newest
// last. Only contracts whose anchoring transaction was signed by the
// declared client are returned (the chain already verified the signature;
// here we check the binding).
func ContractsOnChain(c *chain.Chain) []*Contract {
	var out []*Contract
	for _, b := range c.BestBlocks() {
		for _, tx := range b.Txs {
			if tx.Kind != chain.KindContract || tx.IsCoinbase() {
				continue
			}
			ct, err := DecodeContract(tx.Payload)
			if err != nil || ct.Client != tx.From {
				continue
			}
			out = append(out, ct)
		}
	}
	return out
}

// Ask is a provider's posted offer in the storage market.
type Ask struct {
	Ref           ProviderRef
	Address       chain.Address
	PricePerEpoch uint64
	FreeBytes     int64
}

// SelectAsks returns the n cheapest asks with at least needBytes free,
// sorted by price ascending (ties broken by node ID for determinism).
func SelectAsks(asks []Ask, needBytes int64, n int) []Ask {
	var ok []Ask
	for _, a := range asks {
		if a.FreeBytes >= needBytes {
			ok = append(ok, a)
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].PricePerEpoch != ok[j].PricePerEpoch {
			return ok[i].PricePerEpoch < ok[j].PricePerEpoch
		}
		return ok[i].Ref.Node < ok[j].Ref.Node
	})
	if len(ok) > n {
		ok = ok[:n]
	}
	return ok
}

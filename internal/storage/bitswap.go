package storage

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Bitswap is the IPFS incentive mechanism (Table 2: "Bitswap Ledgers"):
// instead of blockchain payments, every pair of peers keeps a byte-count
// ledger, and a peer stops serving a partner whose debt ratio (bytes taken
// vs bytes given) grows too large. Reciprocity without money — and
// therefore, as the paper's table implies, no incentive for strangers to
// store your data long-term; it only polices active exchange.

// The reciprocity policy: a partner is refused once the bytes we sent it
// exceed debtRatioLimit times what it sent us plus graceBytes.
const (
	// debtRatioLimit lets a reciprocating peer run up to twice its
	// contribution, slack for exchanges that do not alternate block for
	// block, while a pure taker is cut off after 2·graceBytes.
	debtRatioLimit = 2
	// graceBytes lets a new partner bootstrap before the ratio binds. At
	// 1 KiB a stranger gets a handful of small blocks free — four of the
	// 512-byte blocks E2 trades — and must then give back.
	graceBytes = 1 << 10
)

// bitswap wire methods.
const methodBitswapWant = "bitswap.want"

type bitswapWantResp struct {
	Data    []byte
	OK      bool
	Refused bool // reciprocity refusal, distinct from not-found
}

// BitswapNode is one content-exchanging peer with pairwise ledgers.
type BitswapNode struct {
	rpc    *simnet.RPCNode
	blocks map[cryptoutil.Hash][]byte
	// sentTo / receivedFrom account bytes exchanged with each partner.
	sentTo       map[simnet.NodeID]int64
	receivedFrom map[simnet.NodeID]int64
	// Refusals counts requests denied for bad reciprocity.
	Refusals int
}

// NewBitswapNode creates a bitswap peer on node.
func NewBitswapNode(node *simnet.Node) *BitswapNode {
	b := &BitswapNode{
		rpc:          simnet.NewRPCNode(node),
		blocks:       map[cryptoutil.Hash][]byte{},
		sentTo:       map[simnet.NodeID]int64{},
		receivedFrom: map[simnet.NodeID]int64{},
	}
	b.rpc.Serve(methodBitswapWant, b.onWant)
	return b
}

// Node returns the underlying simnet node.
func (b *BitswapNode) Node() *simnet.Node { return b.rpc.Node() }

// Put adds a block to the local store.
func (b *BitswapNode) Put(data []byte) cryptoutil.Hash {
	id := cryptoutil.SumHash(data)
	b.blocks[id] = append([]byte{}, data...)
	return id
}

// DebtRatio returns how indebted a partner is: bytes we sent them over
// bytes they sent us, after the bootstrap grace.
func (b *BitswapNode) DebtRatio(peer simnet.NodeID) float64 {
	sent := float64(b.sentTo[peer])
	recv := float64(b.receivedFrom[peer] + graceBytes)
	return sent / recv
}

func (b *BitswapNode) onWant(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return bitswapWantResp{}, 8
	}
	data, have := b.blocks[id]
	if !have {
		return bitswapWantResp{}, 8
	}
	if b.DebtRatio(from) > debtRatioLimit {
		b.Refusals++
		return bitswapWantResp{Refused: true}, 8
	}
	b.sentTo[from] += int64(len(data))
	return bitswapWantResp{Data: data, OK: true}, 16 + len(data)
}

// Want requests a block from a partner; on success the block is stored
// locally and the partner credit updated. done reports (ok, refused).
func (b *BitswapNode) Want(peer simnet.NodeID, id cryptoutil.Hash, timeout time.Duration, done func(ok, refused bool)) {
	b.rpc.Call(peer, methodBitswapWant, id, 40, timeout, func(resp any, err error) {
		if err != nil {
			done(false, false)
			return
		}
		r, k := resp.(bitswapWantResp)
		if !k || !r.OK {
			done(false, k && r.Refused)
			return
		}
		if cryptoutil.SumHash(r.Data) != id {
			done(false, false)
			return
		}
		b.blocks[id] = r.Data
		b.receivedFrom[peer] += int64(len(r.Data))
		done(true, false)
	})
}

package storage

import (
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// ProviderRef addresses a storage provider on the simulated network.
type ProviderRef struct {
	Node simnet.NodeID
}

// CheatMode configures a dishonest provider, modelling the attacks §3.3's
// proof mechanisms exist to catch.
type CheatMode int

const (
	// Honest providers store and serve faithfully.
	Honest CheatMode = iota
	// DropAfterAck acknowledges writes, then discards the data.
	DropAfterAck
	// CorruptBits stores the data but flips bits before serving or
	// proving.
	CorruptBits
	// DedupReplicas claims to hold every sealed replica but stores only
	// the first, re-sealing others on demand (Sybil/generation attack
	// against proof-of-replication).
	DedupReplicas
	// OutsourceFetch stores nothing locally and fetches from an accomplice
	// provider when challenged (outsourcing attack); responses arrive
	// late.
	OutsourceFetch
)

// RPC method names.
const (
	methodPut          = "storage.put"
	methodGet          = "storage.get"
	methodPin          = "storage.pin" // GC exemption (contracts, repairs)
	methodUnpin        = "storage.unpin"
	methodRelease      = "storage.release"      // drop one upload reference
	methodChallenge    = "storage.challenge"    // proof-of-storage
	methodRetChallenge = "storage.retchallenge" // proof-of-retrievability
	methodPutSealed    = "storage.putsealed"    // proof-of-replication
	methodRepChallenge = "storage.repchallenge"
)

type putReq struct {
	Chunk Chunk
}

type getResp struct {
	Data []byte
	OK   bool
}

type challengeReq struct {
	ChunkID cryptoutil.Hash
	Leaf    int
}

type challengeResp struct {
	LeafData []byte
	Proof    *cryptoutil.MerkleProof
	OK       bool
}

type retChallengeReq struct {
	ChunkID cryptoutil.Hash
	Salt    []byte
}

type retChallengeResp struct {
	MAC []byte
	OK  bool
}

type putSealedReq struct {
	ChunkID cryptoutil.Hash // original chunk the replica derives from
	Replica int
	Data    []byte // sealed bytes
}

type repChallengeReq struct {
	ChunkID cryptoutil.Hash
	Replica int
	Leaf    int
}

// Provider is one storage node. Capacity is in bytes; Price is the posted
// price per byte-epoch used by the contract market. Chunk bytes live in a
// tiered LocalStore: content-address dedup, a bounded memory tier over
// the simulated disk, and (when enabled) capacity-triggered GC.
type Provider struct {
	rpc      *simnet.RPCNode
	capacity int64
	price    uint64
	cheat    CheatMode
	// accomplice is the provider OutsourceFetch cheaters fetch from.
	accomplice simnet.NodeID
	store      *LocalStore
	// sealed[chunkID][replica] holds sealed replica bytes, accounted
	// separately from the chunk store.
	sealed     map[cryptoutil.Hash]map[int][]byte
	sealedUsed int64
}

// ProviderConfig selects a provider's storage tiering and accounting.
type ProviderConfig struct {
	// Capacity bounds the disk tier in bytes.
	Capacity int64
	// MemCapacity bounds the memory cache tier; 0 disables it.
	MemCapacity int64
	// GC enables capacity-triggered disk GC (see LocalStoreConfig.GC).
	GC bool
	// Cheat selects the provider's honesty model.
	Cheat CheatMode
	// Metrics wires storage.tier.*, storage.dedup.ratio and
	// storage.gc.reclaimed_bytes into the node's obs registry. Off by
	// default so historical worlds keep their exact metric sets.
	Metrics bool
}

// NewProvider starts a provider on node. A config carrying only Capacity
// (and Cheat) is the historical provider: no memory tier, no GC, no tier
// metrics — byte-identical behaviour to the flat store, plus
// content-address dedup (identical behaviour on the wire: a duplicate put
// is acknowledged either way, it just no longer doubles the bytes).
func NewProvider(node *simnet.Node, cfg ProviderConfig) *Provider {
	p := &Provider{
		rpc:      simnet.NewRPCNode(node),
		capacity: cfg.Capacity,
		cheat:    cfg.Cheat,
		store: NewLocalStore(LocalStoreConfig{
			Capacity:    cfg.Capacity,
			MemCapacity: cfg.MemCapacity,
			GC:          cfg.GC,
		}),
		sealed: map[cryptoutil.Hash]map[int][]byte{},
	}
	if cfg.Metrics {
		p.store.AttachMetrics(node.Obs())
	}
	cheat := cfg.Cheat
	p.rpc.Serve(methodPut, p.onPut)
	p.rpc.Serve(methodPutSealed, p.onPutSealed)
	p.rpc.Serve(methodGet, p.onGet)
	p.rpc.Serve(methodPin, p.onPin)
	p.rpc.Serve(methodUnpin, p.onUnpin)
	p.rpc.Serve(methodRelease, p.onRelease)
	p.rpc.Serve(methodChallenge, p.onChallenge)
	p.rpc.Serve(methodRetChallenge, p.onRetChallenge)
	p.rpc.Serve(methodRepChallenge, p.onRepChallenge)
	if cheat == OutsourceFetch {
		// The outsourcing attacker answers data requests and proofs by
		// first fetching the chunk from an accomplice — correct answers,
		// but one network round-trip late. Verifiers with a tight deadline
		// catch the added latency (§3.3 "Outsourcing Attacks"). Registered
		// last, these replace the honest handlers above.
		p.rpc.ServeDeferred(methodGet, func(from simnet.NodeID, req any, tok simnet.ReplyToken) {
			id, ok := req.(cryptoutil.Hash)
			if !ok {
				tok.Reply(getResp{}, 8)
				return
			}
			p.fetchFromAccomplice(id, func(data []byte, ok bool) {
				if !ok {
					tok.Reply(getResp{}, 8)
					return
				}
				tok.Reply(getResp{Data: data, OK: true}, 16+len(data))
			})
		})
		p.rpc.ServeDeferred(methodChallenge, func(from simnet.NodeID, req any, tok simnet.ReplyToken) {
			r, ok := req.(challengeReq)
			if !ok {
				tok.Reply(challengeResp{}, 8)
				return
			}
			p.fetchFromAccomplice(r.ChunkID, func(data []byte, ok bool) {
				if !ok {
					tok.Reply(challengeResp{}, 8)
					return
				}
				tok.Reply(buildStorageProof(data, r.Leaf))
			})
		})
		p.rpc.ServeDeferred(methodRetChallenge, func(from simnet.NodeID, req any, tok simnet.ReplyToken) {
			r, ok := req.(retChallengeReq)
			if !ok {
				tok.Reply(retChallengeResp{}, 8)
				return
			}
			p.fetchFromAccomplice(r.ChunkID, func(data []byte, ok bool) {
				if !ok {
					tok.Reply(retChallengeResp{}, 8)
					return
				}
				tok.Reply(retChallengeResp{MAC: cryptoutil.HMAC256(r.Salt, data), OK: true}, 48)
			})
		})
	}
	return p
}

// fetchFromAccomplice pulls a chunk from the attacker's accomplice node.
func (p *Provider) fetchFromAccomplice(id cryptoutil.Hash, done func(data []byte, ok bool)) {
	p.rpc.Call(p.accomplice, methodGet, id, 40, 30*time.Second, func(resp any, err error) {
		if err != nil {
			done(nil, false)
			return
		}
		gr, ok := resp.(getResp)
		if !ok || !gr.OK {
			done(nil, false)
			return
		}
		done(gr.Data, true)
	})
}

// buildStorageProof computes the Merkle challenge response for chunk data.
func buildStorageProof(data []byte, leaf int) (challengeResp, int) {
	leaves := proofLeaves(data)
	if leaf < 0 || leaf >= len(leaves) {
		return challengeResp{}, 8
	}
	tree, err := cryptoutil.NewMerkleTree(leaves)
	if err != nil {
		return challengeResp{}, 8
	}
	proof, err := tree.Prove(leaf)
	if err != nil {
		return challengeResp{}, 8
	}
	return challengeResp{LeafData: leaves[leaf], Proof: proof, OK: true}, 64 + len(leaves[leaf]) + 32*len(proof.Steps)
}

// Node returns the provider's simnet node.
func (p *Provider) Node() *simnet.Node { return p.rpc.Node() }

// Ref returns the provider's network reference.
func (p *Provider) Ref() ProviderRef { return ProviderRef{Node: p.rpc.Node().ID()} }

// SetPrice posts the provider's price per byte-epoch.
func (p *Provider) SetPrice(price uint64) { p.price = price }

// SetAccomplice points an OutsourceFetch cheater at the provider it
// secretly fetches from.
func (p *Provider) SetAccomplice(n simnet.NodeID) { p.accomplice = n }

// Used returns the bytes currently stored (chunk store plus sealed
// replicas).
func (p *Provider) Used() int64 { return p.store.PhysicalBytes() + p.sealedUsed }

// Store exposes the provider's tiered localstore (test/experiment
// introspection: dedup ratio, tier hits, GC reclaim, pin state).
func (p *Provider) Store() *LocalStore { return p.store }

func (p *Provider) onPut(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(putReq)
	if !ok || !r.Chunk.Verify() {
		return false, 8
	}
	switch p.cheat {
	case DropAfterAck, OutsourceFetch:
		return true, 8 // lie
	}
	data := r.Chunk.Data
	if p.cheat == CorruptBits && len(data) > 0 {
		data = append([]byte{}, data...)
		data[0] ^= 0xff
	}
	if !p.store.Put(r.Chunk.ID, data) {
		return false, 8
	}
	return true, 8
}

func (p *Provider) onGet(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return getResp{}, 8
	}
	data, have := p.store.Get(id)
	if !have {
		return getResp{}, 8
	}
	return getResp{Data: data, OK: true}, 16 + len(data)
}

// onPin marks a chunk GC-exempt; live contracts and in-flight repairs
// hold pins. Lying providers acknowledge pins on data they never kept,
// consistent with their other answers.
func (p *Provider) onPin(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return false, 8
	}
	if p.cheat == DropAfterAck || p.cheat == OutsourceFetch {
		return true, 8 // lie
	}
	return p.store.Pin(id), 8
}

func (p *Provider) onUnpin(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return false, 8
	}
	p.store.Unpin(id)
	return true, 8
}

// onRelease drops one upload reference, making the chunk collectable
// once unpinned — the owner's way of saying an object was deleted.
func (p *Provider) onRelease(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return false, 8
	}
	p.store.Release(id)
	return true, 8
}

// onChallenge answers a proof-of-storage Merkle challenge.
func (p *Provider) onChallenge(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(challengeReq)
	if !ok {
		return challengeResp{}, 8
	}
	data, have := p.store.Peek(r.ChunkID)
	if !have {
		return challengeResp{}, 8
	}
	return buildStorageProof(data, r.Leaf)
}

// onRetChallenge answers a proof-of-retrievability sentinel challenge:
// HMAC(salt, chunk).
func (p *Provider) onRetChallenge(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(retChallengeReq)
	if !ok {
		return retChallengeResp{}, 8
	}
	data, have := p.store.Peek(r.ChunkID)
	if !have {
		return retChallengeResp{}, 8
	}
	return retChallengeResp{MAC: cryptoutil.HMAC256(r.Salt, data), OK: true}, 48
}

func (p *Provider) onPutSealed(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(putSealedReq)
	if !ok {
		return false, 8
	}
	if p.Used()+int64(len(r.Data)) > p.capacity {
		return false, 8
	}
	if p.cheat == DropAfterAck || p.cheat == OutsourceFetch {
		return true, 8 // lie, as for plain chunks
	}
	if p.cheat == CorruptBits && len(r.Data) > 0 {
		r.Data = append([]byte{}, r.Data...)
		r.Data[0] ^= 0xff
	}
	if p.cheat == DedupReplicas && r.Replica > 0 {
		// Claim success but store only replica 0; keep the original chunk
		// (needed for on-demand re-sealing) via replica 0's slot.
		return true, 8
	}
	if p.sealed[r.ChunkID] == nil {
		p.sealed[r.ChunkID] = map[int][]byte{}
	}
	p.sealed[r.ChunkID][r.Replica] = append([]byte{}, r.Data...)
	p.sealedUsed += int64(len(r.Data))
	return true, 8
}

// onRepChallenge answers a proof-of-replication challenge: a Merkle leaf of
// the sealed replica. A provider that lacks the replica fails at once; the
// model charges no sealing time, because a re-seal is taken to be slower
// than any challenge deadline (generation-attack detection by timing, as
// in Filecoin's slow sealing function).
func (p *Provider) onRepChallenge(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(repChallengeReq)
	if !ok {
		return challengeResp{}, 8
	}
	replicas := p.sealed[r.ChunkID]
	data, have := replicas[r.Replica]
	if !have {
		// A DedupReplicas cheater could re-seal the missing replica from
		// replica 0 on demand, but a re-seal would land after the
		// verifier's deadline, and a late response is indistinguishable
		// from none. So the cheater fails the challenge here and now.
		return challengeResp{}, 8
	}
	return buildStorageProof(data, r.Leaf)
}

// Package storage implements the decentralized storage systems of the
// paper's §3.3: content-addressed chunk storage on untrusted providers,
// replicated and erasure-coded placement, failure repair, the
// incentive-proof family (proof-of-storage, proof-of-retrievability,
// proof-of-replication with Sybil/outsourcing/generation attack detection),
// on-chain storage contracts with per-epoch payments (Sia/Filecoin style),
// and IPFS-style bitswap reciprocity ledgers.
//
// Every network interaction runs over internal/simnet, so durability and
// repair behaviour can be measured under churn (experiments X5, X6; Table 2
// rows are regenerated from these implementations).
package storage

import (
	"fmt"

	"repro/internal/cryptoutil"
)

// DefaultChunkSize is Upload's chunk size when the caller passes none.
// Tests and simulations usually use smaller chunks.
const DefaultChunkSize = 64 << 10

// proofLeafSize is the Merkle leaf granularity inside a chunk for
// proof-of-storage challenges.
const proofLeafSize = 256

// Chunk is one content-addressed unit of data.
type Chunk struct {
	ID   cryptoutil.Hash
	Data []byte
}

// NewChunk builds a chunk with its content address.
func NewChunk(data []byte) Chunk {
	return Chunk{ID: cryptoutil.SumHash(data), Data: data}
}

// Verify reports whether the data still matches the content address.
func (c Chunk) Verify() bool { return cryptoutil.SumHash(c.Data) == c.ID }

// splitFixed cuts data into parts of size bytes; the last part holds the
// remainder, so it may be shorter, and empty data is one empty part.
func splitFixed(data []byte, size int) [][]byte {
	var parts [][]byte
	for len(data) > size {
		parts = append(parts, data[:size])
		data = data[size:]
	}
	return append(parts, data)
}

// PlacementMode selects the redundancy mechanism.
type PlacementMode int

const (
	// ModeReplicate stores every chunk on Replicas distinct providers.
	ModeReplicate PlacementMode = iota
	// ModeErasure splits the file into DataShards chunks and stores
	// DataShards+ParityShards erasure-coded shards on distinct providers.
	ModeErasure
)

// String names the mode.
//
//reach:fmt.Stringer; a mode prints by name wherever one is logged
func (m PlacementMode) String() string {
	switch m {
	case ModeReplicate:
		return "replicate"
	case ModeErasure:
		return "erasure"
	}
	return "unknown"
}

// Manifest describes a stored object: how to find, verify, and reassemble
// it. The manifest is small and kept by the owner (or anchored on-chain via
// a contract); the bulk data lives on providers.
type Manifest struct {
	// FileID is the hash of the original file bytes.
	FileID cryptoutil.Hash
	// Size is the original length in bytes.
	Size int
	Mode PlacementMode
	// Chunks lists the content addresses in order. In erasure mode these
	// are the shard addresses (data shards first, systematic order).
	Chunks []cryptoutil.Hash
	// ChunkLens is the chunk table: the byte length of each chunk,
	// parallel to Chunks. Fixed-size chunks are the upload's chunk size
	// but for a shorter last one, content-defined chunks are whatever the
	// chunker cut, and every erasure shard is ceil(Size/k) bytes, at
	// least 1; an empty object is one chunk of length 0.
	ChunkLens []int
	// ChunkRoots holds the per-chunk proof-of-storage Merkle root.
	ChunkRoots []cryptoutil.Hash
	// Erasure parameters (Mode == ModeErasure).
	DataShards, ParityShards int
	// Replicas is the target copy count (Mode == ModeReplicate).
	Replicas int
}

// RedundancyFactor returns the storage expansion of the manifest's scheme.
func (m *Manifest) RedundancyFactor() float64 {
	if m.Mode == ModeErasure && m.DataShards > 0 {
		return float64(m.DataShards+m.ParityShards) / float64(m.DataShards)
	}
	return float64(m.Replicas)
}

// chunkProofRoot computes the proof-of-storage Merkle root of a chunk: a
// tree over proofLeafSize-byte leaves.
func chunkProofRoot(data []byte) cryptoutil.Hash {
	return cryptoutil.MerkleRoot(proofLeaves(data))
}

func proofLeaves(data []byte) [][]byte {
	var leaves [][]byte
	if len(data) == 0 {
		return [][]byte{nil}
	}
	for start := 0; start < len(data); start += proofLeafSize {
		end := start + proofLeafSize
		if end > len(data) {
			end = len(data)
		}
		leaves = append(leaves, data[start:end])
	}
	return leaves
}

// numProofLeaves returns how many proof leaves a chunk of size n has.
func numProofLeaves(n int) int {
	if n == 0 {
		return 1
	}
	return (n + proofLeafSize - 1) / proofLeafSize
}

// Placement records where each chunk of a manifest currently lives. The
// owner updates it during upload and repair.
type Placement struct {
	// Holders[chunkID] lists provider node IDs believed to hold the chunk.
	Holders map[cryptoutil.Hash][]ProviderRef
}

// NewPlacement creates an empty placement map.
func NewPlacement() *Placement {
	return &Placement{Holders: map[cryptoutil.Hash][]ProviderRef{}}
}

// Add records that ref holds chunk id (idempotent).
func (p *Placement) Add(id cryptoutil.Hash, ref ProviderRef) {
	for _, r := range p.Holders[id] {
		if r.Node == ref.Node {
			return
		}
	}
	p.Holders[id] = append(p.Holders[id], ref)
}

// Remove drops ref from chunk id's holder list. The holder list is
// rebuilt rather than shifted in place: in-flight downloads hold
// references to the old slice, and mutating its backing array under them
// would corrupt their failover order.
func (p *Placement) Remove(id cryptoutil.Hash, ref ProviderRef) {
	hs := p.Holders[id]
	for i, r := range hs {
		if r.Node == ref.Node {
			out := make([]ProviderRef, 0, len(hs)-1)
			out = append(out, hs[:i]...)
			out = append(out, hs[i+1:]...)
			p.Holders[id] = out
			return
		}
	}
}

// Count returns how many providers hold chunk id.
func (p *Placement) Count(id cryptoutil.Hash) int { return len(p.Holders[id]) }

// MinRedundancy returns the smallest holder count across the manifest's
// chunks — the object's weakest link.
func (p *Placement) MinRedundancy(m *Manifest) int {
	min := -1
	for _, id := range m.Chunks {
		n := p.Count(id)
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// String summarizes the placement.
//
//reach:fmt.Stringer; a placement prints its size wherever one is logged
func (p *Placement) String() string {
	return fmt.Sprintf("placement over %d chunks", len(p.Holders))
}

package cryptoutil

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Domain-separation prefixes prevent a leaf hash from being replayed as an
// interior node (the classic CVE-2012-2459-style Merkle ambiguity).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// MerkleTree is a binary hash tree over an ordered list of leaves. Odd
// nodes at each level are promoted unchanged (no duplication), which keeps
// proofs unambiguous for any leaf count.
type MerkleTree struct {
	levels [][]Hash // levels[0] = leaf hashes, last level has one root
}

// LeafHash computes the domain-separated hash of a leaf's content. A leaf
// up to a hash long is encoded on the stack; a longer one spills to the
// heap through append.
func LeafHash(data []byte) Hash {
	var scratch [1 + sha256.Size]byte
	return SumHash(append(append(scratch[:0], leafPrefix), data...))
}

func interiorHash(l, r Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+sha256.Size:], r[:])
	return SumHash(buf[:])
}

// reduce folds a level of node hashes into the root in place, pairing
// neighbours and promoting an odd last node unchanged, level by level as
// NewMerkleTree builds them. The level must not be empty.
func reduce(level []Hash) Hash {
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i+1 < n; i += 2 {
			level[i/2] = interiorHash(level[i], level[i+1])
		}
		if n%2 == 1 {
			level[n/2] = level[n-1]
		}
	}
	return level[0]
}

// NewMerkleTree builds a tree over the given leaf contents. It returns an
// error for an empty leaf set, which has no defined root.
func NewMerkleTree(leaves [][]byte) (*MerkleTree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("cryptoutil: merkle tree needs at least one leaf")
	}
	level := make([]Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = LeafHash(leaf)
	}
	t := &MerkleTree{levels: [][]Hash{level}}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, interiorHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// NumLeaves returns the number of leaves the tree was built over.
func (t *MerkleTree) NumLeaves() int { return len(t.levels[0]) }

// ProofStep is one sibling hash in an inclusion proof; Left records whether
// the sibling sits to the left of the running hash.
type ProofStep struct {
	Sibling Hash
	Left    bool
}

// MerkleProof is an inclusion proof for one leaf.
type MerkleProof struct {
	LeafIndex int
	Steps     []ProofStep
}

// Prove builds the inclusion proof for leaf index i.
func (t *MerkleTree) Prove(i int) (*MerkleProof, error) {
	if i < 0 || i >= t.NumLeaves() {
		return nil, fmt.Errorf("cryptoutil: merkle prove: index %d out of range [0,%d)", i, t.NumLeaves())
	}
	proof := &MerkleProof{LeafIndex: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < len(level) {
			proof.Steps = append(proof.Steps, ProofStep{Sibling: level[sib], Left: sib < idx})
		}
		// With odd-node promotion, a node with no sibling moves up unchanged,
		// so the proof simply skips that level.
		idx /= 2
	}
	return proof, nil
}

// VerifyProof checks that leafData at the proof's position hashes up to
// root.
func VerifyProof(root Hash, leafData []byte, proof *MerkleProof) bool {
	if proof == nil {
		return false
	}
	h := LeafHash(leafData)
	for _, step := range proof.Steps {
		if step.Left {
			h = interiorHash(step.Sibling, h)
		} else {
			h = interiorHash(h, step.Sibling)
		}
	}
	return h == root
}

// MerkleRoot returns the root of the tree NewMerkleTree would build over
// leaves, without keeping its levels. An empty input returns the zero hash.
func MerkleRoot(leaves [][]byte) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = LeafHash(leaf)
	}
	return reduce(level)
}

// MerkleRootOf is MerkleRoot over leaves that are hashes: each element's
// 32 bytes are one leaf's content. It works in place and allocates nothing,
// so it overwrites the slice it is given.
func MerkleRootOf(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	for i := range leaves {
		leaves[i] = LeafHash(leaves[i][:])
	}
	return reduce(leaves)
}

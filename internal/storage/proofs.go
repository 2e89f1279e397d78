package storage

import (
	"bytes"
	"encoding/binary"
	"io"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Proof-of-retrievability (Storj-style sentinels): before uploading, the
// owner precomputes challenge/response pairs (salt, HMAC(salt, chunk)) and
// keeps them. Each audit spends one pair; the provider cannot answer
// without the chunk bytes, and the owner needs none of the data to verify.

// Sentinel is one unspent retrievability challenge.
type Sentinel struct {
	Salt []byte
	MAC  []byte
}

// MakeSentinels precomputes n challenge pairs for a chunk.
func MakeSentinels(rand io.Reader, chunk []byte, n int) ([]Sentinel, error) {
	out := make([]Sentinel, n)
	for i := range out {
		salt := make([]byte, 16)
		if _, err := io.ReadFull(rand, salt); err != nil {
			return nil, err
		}
		out[i] = Sentinel{Salt: salt, MAC: cryptoutil.HMAC256(salt, chunk)}
	}
	return out, nil
}

// RetAudit spends one sentinel against a holder: it sends the salt and
// checks the returned MAC within deadline. done reports whether the
// provider proved retrievability.
func (c *Client) RetAudit(chunkID cryptoutil.Hash, holder ProviderRef, s Sentinel, deadline time.Duration, done func(ok bool)) {
	req := retChallengeReq{ChunkID: chunkID, Salt: s.Salt}
	c.rpc.Call(holder.Node, methodRetChallenge, req, 64, deadline, func(resp any, err error) {
		if err != nil {
			done(false)
			return
		}
		r, ok := resp.(retChallengeResp)
		done(ok && r.OK && bytes.Equal(r.MAC, s.MAC))
	})
}

// Proof-of-replication (Filecoin-style, simplified): each replica of a
// chunk is "sealed" with a provider- and replica-specific keystream before
// upload. Sealing is taken to be slower than any challenge deadline, so a
// provider that stores one copy cannot regenerate the others in time: the
// model has a provider missing a replica fail its challenge at once, with
// no sealing time charged. A provider that claims extra identities still
// has to store one distinct sealed replica per identity. Sealing is an
// involution (XOR), so the original data is recoverable from any replica.

// Seal transforms chunk data into the sealed replica for (provider,
// replica). Applying Seal twice with the same parameters restores the
// original.
func Seal(data []byte, provider simnet.NodeID, replica int) []byte {
	if len(data) == 0 {
		return nil
	}
	stream := sealStream(len(data), provider, replica)
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ stream[i]
	}
	return out
}

// sealStream expands a (provider, replica) seed into an n-byte keystream
// via HMAC in counter mode (HKDF caps output at 8160 bytes; chunks can be
// larger).
func sealStream(n int, provider simnet.NodeID, replica int) []byte {
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[:8], uint64(provider))
	binary.BigEndian.PutUint64(seed[8:], uint64(replica))
	key := cryptoutil.HKDF(seed[:], nil, []byte("porep-seal"), 32)
	out := make([]byte, 0, n+32)
	var ctr [8]byte
	for i := uint64(0); len(out) < n; i++ {
		binary.BigEndian.PutUint64(ctr[:], i)
		out = append(out, cryptoutil.HMAC256(key, ctr[:])...)
	}
	return out[:n]
}

// SealedRoot returns the proof Merkle root of the sealed replica.
func SealedRoot(data []byte, provider simnet.NodeID, replica int) cryptoutil.Hash {
	return chunkProofRoot(Seal(data, provider, replica))
}

// PutSealed uploads sealed replica `replica` of chunk (identified by its
// unsealed content address) to the holder.
func (c *Client) PutSealed(chunkID cryptoutil.Hash, data []byte, holder ProviderRef, replica int, done func(ok bool)) {
	sealed := Seal(data, holder.Node, replica)
	req := putSealedReq{ChunkID: chunkID, Replica: replica, Data: sealed}
	c.rpc.Call(holder.Node, methodPutSealed, req, len(sealed)+56, c.timeout, func(resp any, err error) {
		ok, _ := resp.(bool)
		done(err == nil && ok)
	})
}

// RepAudit challenges a holder for a random leaf of a sealed replica and
// verifies it against the expected sealed root within deadline.
func (c *Client) RepAudit(chunkID cryptoutil.Hash, sealedRoot cryptoutil.Hash, chunkLen int, holder ProviderRef, replica int, deadline time.Duration, done func(ok bool)) {
	rng := c.rpc.Node().Rand()
	leaf := rng.Intn(numProofLeaves(chunkLen))
	req := repChallengeReq{ChunkID: chunkID, Replica: replica, Leaf: leaf}
	c.rpc.Call(holder.Node, methodRepChallenge, req, 56, deadline, func(resp any, err error) {
		if err != nil {
			done(false)
			return
		}
		r, ok := resp.(challengeResp)
		done(ok && r.OK && cryptoutil.VerifyProof(sealedRoot, r.LeafData, r.Proof))
	})
}

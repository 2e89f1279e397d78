package cryptoutil

import (
	"bytes"
	"testing"
)

// FuzzParseDHPublic: ParseDHPublic must never panic and every accepted
// key must re-encode to the exact input bytes.
func FuzzParseDHPublic(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add([]byte{9})
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i + 1)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		pub, err := ParseDHPublic(b)
		if err != nil {
			return
		}
		if !bytes.Equal(pub.Bytes(), b) {
			t.Fatalf("accepted key re-encodes differently")
		}
	})
}

// FuzzSealOpen: the AEAD round-trip must hold for any key material and
// plaintext, a single flipped ciphertext bit must be rejected, and Open
// must never panic on raw garbage.
func FuzzSealOpen(f *testing.F) {
	f.Add([]byte("ikm"), []byte("nonce"), []byte("plaintext"), []byte("ad"), uint8(0))
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, uint8(255))
	f.Fuzz(func(t *testing.T, ikm, nonce, pt, ad []byte, flip uint8) {
		// Garbage in: no panic required, error expected for bad key sizes.
		_, _ = Open(ikm, nonce, pt, ad)

		key := HKDF(ikm, nil, []byte("fuzz-seal"), 32)
		ct, err := Seal(key, nonce, pt, ad)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		got, err := Open(key, nonce, ct, ad)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("round-trip failed: %v", err)
		}
		mut := append([]byte(nil), ct...)
		mut[int(flip)%len(mut)] ^= 1 << (flip % 8)
		if _, err := Open(key, nonce, mut, ad); err == nil {
			t.Fatal("tampered ciphertext opened cleanly")
		}
	})
}

// FuzzMerkleProveVerify: inclusion proofs built from fuzzed leaf sets must
// verify for the right leaf and must fail for tampered leaf data.
func FuzzMerkleProveVerify(f *testing.F) {
	f.Add([]byte("abcdefgh"), uint8(3), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(15), uint8(9))
	f.Fuzz(func(t *testing.T, blob []byte, nRaw, idxRaw uint8) {
		n := 1 + int(nRaw)%16
		leaves := make([][]byte, n)
		for i := range leaves {
			lo := i * len(blob) / n
			hi := (i + 1) * len(blob) / n
			leaves[i] = blob[lo:hi]
		}
		tree, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatalf("NewMerkleTree(%d leaves): %v", n, err)
		}
		i := int(idxRaw) % n
		proof, err := tree.Prove(i)
		if err != nil {
			t.Fatalf("Prove(%d): %v", i, err)
		}
		if !VerifyProof(treeRoot(tree), leaves[i], proof) {
			t.Fatalf("valid proof for leaf %d/%d rejected", i, n)
		}
		tampered := append(append([]byte(nil), leaves[i]...), 'x')
		if VerifyProof(treeRoot(tree), tampered, proof) {
			t.Fatalf("tampered leaf %d/%d verified", i, n)
		}
		if VerifyProof(treeRoot(tree), leaves[i], nil) {
			t.Fatal("nil proof verified")
		}
	})
}

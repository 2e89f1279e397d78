// Package cryptoutil provides the cryptographic building blocks shared by
// every subsystem in this repository: ed25519 signing identities, X25519
// Diffie-Hellman agreement, an HMAC-SHA256-based HKDF, AES-GCM authenticated
// encryption, and Merkle trees with logarithmic inclusion proofs.
//
// Everything here is built from the Go standard library only. The package
// deliberately exposes small, composable primitives rather than protocol
// logic; protocols (double ratchet, proof-of-storage challenges, chain
// validation) live in their own packages.
package cryptoutil

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// Hash is a SHA-256 digest, the canonical content address and identifier
// format throughout the repository.
type Hash [32]byte

// SumHash returns the SHA-256 digest of data.
func SumHash(data []byte) Hash { return sha256.Sum256(data) }

// SumHashes hashes the concatenation of several byte slices without
// building an intermediate buffer.
func SumHashes(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// String renders the hash as lowercase hex.
//
//reach:fmt.Stringer; a hash prints as hex wherever one is logged
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 hex characters, for logs and tables.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zero bytes.
func (h Hash) IsZero() bool { return h == Hash{} }

// KeyPair is an ed25519 signing identity. The public key doubles as a node
// or user identifier across the naming, storage, and communication layers.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey

	// checked is the private key (seed, then public half) GenerateKeyPair
	// examined, and sound its verdict; see Sound.
	checked [ed25519.PrivateKeySize]byte
	sound   bool
}

// GenerateKeyPair creates a new ed25519 key pair from the given entropy
// source (pass a seeded deterministic reader in simulations, or
// crypto/rand.Reader for real entropy).
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate key: %w", err)
	}
	kp := &KeyPair{Public: pub, Private: priv}
	kp.sound = bytes.Equal(ed25519.NewKeyFromSeed(priv.Seed()), priv) && bytes.Equal(pub, priv[ed25519.SeedSize:])
	copy(kp.checked[:], priv)
	return kp, nil
}

// Sound reports whether the pair is one GenerateKeyPair checked and that
// still holds the bytes it checked: Private is the key derived from its own
// seed, and Public is its public half. A signature made with a sound pair
// verifies under Public. A pair built as a literal, or whose fields were
// reassigned or edited after generation, is not sound.
func (kp *KeyPair) Sound() bool {
	return kp.sound && bytes.Equal(kp.Private, kp.checked[:]) && bytes.Equal(kp.Public, kp.checked[ed25519.SeedSize:])
}

// Sign signs msg with the private key.
func (kp *KeyPair) Sign(msg []byte) []byte { return ed25519.Sign(kp.Private, msg) }

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// Fingerprint returns the SHA-256 digest of the public key; it is the
// stable identifier for the key holder.
func (kp *KeyPair) Fingerprint() Hash { return SumHash(kp.Public) }

// PublicFingerprint returns the identifier for a bare public key.
func PublicFingerprint(pub ed25519.PublicKey) Hash { return SumHash(pub) }

// DHKeyPair is an X25519 key agreement pair used by the double ratchet and
// any other protocol needing ephemeral shared secrets.
type DHKeyPair struct {
	Public  *ecdh.PublicKey
	Private *ecdh.PrivateKey
}

// GenerateDHKeyPair creates a new X25519 pair from exactly 32 bytes of
// rand, so a seeded reader gives the same pair on every run and is left at
// the same offset. (ecdh's GenerateKey may read one extra byte at random.)
func GenerateDHKeyPair(rand io.Reader) (*DHKeyPair, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, fmt.Errorf("cryptoutil: generate dh key: %w", err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(seed[:])
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate dh key: %w", err)
	}
	return &DHKeyPair{Public: priv.PublicKey(), Private: priv}, nil
}

// SharedSecret computes the X25519 shared secret with the peer's public key.
func (d *DHKeyPair) SharedSecret(peer *ecdh.PublicKey) ([]byte, error) {
	s, err := d.Private.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: ecdh: %w", err)
	}
	return s, nil
}

// ParseDHPublic rebuilds an X25519 public key from its 32-byte encoding.
func ParseDHPublic(b []byte) (*ecdh.PublicKey, error) {
	pub, err := ecdh.X25519().NewPublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: parse dh public: %w", err)
	}
	return pub, nil
}

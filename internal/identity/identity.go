// Package identity implements the user-identity machinery surveyed in the
// paper's §3.1: the three basic identity mechanisms (public keys, personal
// information, pseudonyms), a centralized certification-authority PKI with
// issuance, expiry, revocation, and CA-compromise injection, and a Web of
// Trust with endorsement paths and Sybil-attack injection.
//
// The paper's claim under test: "Existing PKIs relying on CAs or a WoT
// suffer from well-known security, trust, and revocation weaknesses (e.g.,
// centralized administrative control, CA compromises, WoT Sybil attacks)".
// internal/naming builds the blockchain alternative on top of
// internal/chain and scores all schemes against Zooko's triangle.
package identity

import (
	"crypto/ed25519"
	"io"

	"repro/internal/cryptoutil"
)

// Mechanism is one of the three basic ways §3.1 lists to represent user
// identities on the Internet.
type Mechanism int

const (
	// MechanismPublicKey identifies users by an opaque key fingerprint.
	MechanismPublicKey Mechanism = iota
	// MechanismPersonalInfo identifies users by real-world attributes
	// (legal name, email, phone).
	MechanismPersonalInfo
	// MechanismPseudonym identifies users by a chosen handle.
	MechanismPseudonym
)

// String returns the mechanism name.
//
//reach:fmt.Stringer; a mechanism prints by name wherever one is logged
func (m Mechanism) String() string {
	switch m {
	case MechanismPublicKey:
		return "public-key"
	case MechanismPersonalInfo:
		return "personal-info"
	case MechanismPseudonym:
		return "pseudonym"
	}
	return "unknown"
}

// Properties captures §3.1's assessment: "none of these three basic
// mechanisms are simultaneously usable, secure, and privacy preserving by
// themselves."
type Properties struct {
	Usable  bool // human-meaningful / human-usable
	Secure  bool // unforgeable without out-of-band trust
	Private bool // does not reveal real-world identity
}

// Properties returns the paper's assessment of the mechanism.
//
//reach:the §3.1 three-mechanism claim row in EXPERIMENTS.md cites TestMechanismProperties
func (m Mechanism) Properties() Properties {
	switch m {
	case MechanismPublicKey:
		// "Public-key-based identities consisting of opaque strings help
		// preserve privacy and are considered relatively secure; however,
		// such identities have faced usability barriers."
		return Properties{Usable: false, Secure: true, Private: true}
	case MechanismPersonalInfo:
		return Properties{Usable: true, Secure: false, Private: false}
	case MechanismPseudonym:
		return Properties{Usable: true, Secure: false, Private: true}
	}
	return Properties{}
}

// Identity is a user identity: a signing key plus the chosen mechanism's
// presentation. Combining a name with a key ("a name (or pseudonym) is
// combined with a public-key to yield a secure, human-meaningful identity")
// is what the PKI, WoT, and blockchain naming schemes provide.
type Identity struct {
	Key       *cryptoutil.KeyPair
	Name      string
	Mechanism Mechanism
}

// New creates an identity with a fresh key pair from rand.
func New(rand io.Reader, name string, mech Mechanism) (*Identity, error) {
	kp, err := cryptoutil.GenerateKeyPair(rand)
	if err != nil {
		return nil, err
	}
	return &Identity{Key: kp, Name: name, Mechanism: mech}, nil
}

// Fingerprint returns the identity's stable key fingerprint.
func (id *Identity) Fingerprint() cryptoutil.Hash { return id.Key.Fingerprint() }

// Public returns the identity's public key.
func (id *Identity) Public() ed25519.PublicKey { return id.Key.Public }

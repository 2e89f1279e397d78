package identity

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cryptoutil"
)

// Certificate binds a subject name to a public key under a CA's signature,
// valid within [NotBefore, NotAfter) of simulation time.
type Certificate struct {
	Serial     uint64
	Subject    string
	SubjectKey ed25519.PublicKey
	Issuer     string
	NotBefore  time.Duration
	NotAfter   time.Duration
	Sig        []byte
}

func (c *Certificate) signingBytes() []byte {
	var buf []byte
	var scratch [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint64(scratch[:], uint64(len(b)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, b...)
	}
	binary.BigEndian.PutUint64(scratch[:], c.Serial)
	buf = append(buf, scratch[:]...)
	put([]byte(c.Subject))
	put(c.SubjectKey)
	put([]byte(c.Issuer))
	binary.BigEndian.PutUint64(scratch[:], uint64(c.NotBefore))
	buf = append(buf, scratch[:]...)
	binary.BigEndian.PutUint64(scratch[:], uint64(c.NotAfter))
	buf = append(buf, scratch[:]...)
	return buf
}

// CA is a certification authority: the single point of administrative
// control the paper warns about. Compromise() hands the signing key to an
// attacker, after which rogue certificates verify exactly like legitimate
// ones — there is no in-band way for a verifier to tell the difference.
type CA struct {
	name       string
	key        *cryptoutil.KeyPair
	nextSerial uint64
	revoked    map[uint64]bool
	issued     int
}

// NewCA creates a certification authority with a fresh key.
func NewCA(rand io.Reader, name string) (*CA, error) {
	kp, err := cryptoutil.GenerateKeyPair(rand)
	if err != nil {
		return nil, err
	}
	return &CA{name: name, key: kp, revoked: map[uint64]bool{}}, nil
}

// Name returns the CA's name.
func (ca *CA) Name() string { return ca.name }

// PublicKey returns the CA verification key that relying parties pin.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.key.Public }

// Issued returns how many certificates the CA has signed.
func (ca *CA) Issued() int { return ca.issued }

// Issue signs a certificate for subject/key valid over the given window.
func (ca *CA) Issue(subject string, key ed25519.PublicKey, notBefore, notAfter time.Duration) (*Certificate, error) {
	if notAfter <= notBefore {
		return nil, fmt.Errorf("identity: certificate window [%v, %v) is empty", notBefore, notAfter)
	}
	ca.nextSerial++
	ca.issued++
	cert := &Certificate{
		Serial:     ca.nextSerial,
		Subject:    subject,
		SubjectKey: key,
		Issuer:     ca.name,
		NotBefore:  notBefore,
		NotAfter:   notAfter,
	}
	cert.Sig = ca.key.Sign(cert.signingBytes())
	return cert, nil
}

// Revoke adds a serial to the CA's revocation list.
func (ca *CA) Revoke(serial uint64) { ca.revoked[serial] = true }

// CRL returns a copy of the revocation list.
func (ca *CA) CRL() map[uint64]bool {
	out := make(map[uint64]bool, len(ca.revoked))
	for k, v := range ca.revoked { //determinism:ok copied into a map
		out[k] = v
	}
	return out
}

// Compromise returns the CA's private signing key, modelling a CA breach
// (DigiNotar-style). The attacker can then call ForgeCertificate.
func (ca *CA) Compromise() *cryptoutil.KeyPair { return ca.key }

// ForgeCertificate signs an arbitrary binding with a stolen CA key. The
// result is indistinguishable from a legitimate certificate to verifiers.
func ForgeCertificate(stolen *cryptoutil.KeyPair, issuerName, subject string, key ed25519.PublicKey, notBefore, notAfter time.Duration) *Certificate {
	cert := &Certificate{
		Serial:     1 << 62, // attacker-chosen; CRL won't contain it
		Subject:    subject,
		SubjectKey: key,
		Issuer:     issuerName,
		NotBefore:  notBefore,
		NotAfter:   notAfter,
	}
	cert.Sig = stolen.Sign(cert.signingBytes())
	return cert
}

// Verification errors.
var (
	ErrUnknownIssuer = errors.New("identity: certificate issuer not trusted")
	ErrBadSignature  = errors.New("identity: certificate signature invalid")
	ErrExpired       = errors.New("identity: certificate outside validity window")
	ErrRevoked       = errors.New("identity: certificate revoked")
)

// TrustStore is a verifier's set of pinned CA keys plus any CRLs it has
// fetched. CRL freshness is the verifier's problem — exactly the revocation
// weakness the paper references.
type TrustStore struct {
	cas  map[string]ed25519.PublicKey
	crls map[string]map[uint64]bool
}

// NewTrustStore creates an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{cas: map[string]ed25519.PublicKey{}, crls: map[string]map[uint64]bool{}}
}

// AddCA pins a CA key under its name.
func (ts *TrustStore) AddCA(name string, key ed25519.PublicKey) { ts.cas[name] = key }

// SetCRL installs a revocation list for an issuer (e.g. fetched
// periodically).
func (ts *TrustStore) SetCRL(issuer string, crl map[uint64]bool) { ts.crls[issuer] = crl }

// Verify checks a certificate at the given simulation time: trusted
// issuer, valid signature, within validity window, not in the installed
// CRL.
func (ts *TrustStore) Verify(cert *Certificate, now time.Duration) error {
	caKey, ok := ts.cas[cert.Issuer]
	if !ok {
		return ErrUnknownIssuer
	}
	if !cryptoutil.Verify(caKey, cert.signingBytes(), cert.Sig) {
		return ErrBadSignature
	}
	if now < cert.NotBefore || now >= cert.NotAfter {
		return ErrExpired
	}
	if crl, ok := ts.crls[cert.Issuer]; ok && crl[cert.Serial] {
		return ErrRevoked
	}
	return nil
}

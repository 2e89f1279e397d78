package groupcomm

import (
	"crypto/ecdh"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cryptoutil"
)

// Double ratchet (Perrin & Marlinspike) built on X25519 + HMAC-SHA256 +
// AES-256-GCM, stdlib only. §3.2: "Matrix … ensures privacy by using
// end-to-end encryption techniques like the double ratchet algorithm."
// Sessions provide forward secrecy (old keys are destroyed each step) and
// post-compromise security (a DH ratchet step heals a leaked state), and
// tolerate out-of-order delivery via bounded skipped-key storage.

const maxSkippedKeys = 256

// RatchetMsg is one encrypted message: the ratchet header plus ciphertext.
type RatchetMsg struct {
	DHPub      []byte // sender's current ratchet public key (32 bytes)
	PN         uint32 // length of sender's previous sending chain
	N          uint32 // message number in current sending chain
	Ciphertext []byte
}

func (m *RatchetMsg) header() []byte {
	buf := make([]byte, 0, 40)
	buf = append(buf, m.DHPub...)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], m.PN)
	buf = append(buf, n[:]...)
	binary.BigEndian.PutUint32(n[:], m.N)
	buf = append(buf, n[:]...)
	return buf
}

type skippedKey struct {
	dhPub string
	n     uint32
}

// Ratchet is one endpoint of a double-ratchet session.
type Ratchet struct {
	rand    io.Reader
	rk      []byte // root key
	dhs     *cryptoutil.DHKeyPair
	dhr     *ecdh.PublicKey
	cks     []byte // sending chain key
	ckr     []byte // receiving chain key
	ns, nr  uint32
	pn      uint32
	skipped map[skippedKey][]byte
}

func kdfRK(rk, dhOut []byte) (newRK, ck []byte) {
	out := cryptoutil.HKDF(dhOut, rk, []byte("double-ratchet-rk"), 64)
	return out[:32], out[32:]
}

func kdfCK(ck []byte) (newCK, mk []byte) {
	return cryptoutil.HMAC256(ck, []byte{0x02}), cryptoutil.HMAC256(ck, []byte{0x01})
}

// NewRatchetInitiator creates the session opener's state. sharedSecret is
// the out-of-band session secret (in the full system: derived from an
// X3DH-style handshake or the naming layer); remoteDH is the responder's
// published ratchet key.
func NewRatchetInitiator(rand io.Reader, sharedSecret []byte, remoteDH *ecdh.PublicKey) (*Ratchet, error) {
	dhs, err := cryptoutil.GenerateDHKeyPair(rand)
	if err != nil {
		return nil, err
	}
	dhOut, err := dhs.SharedSecret(remoteDH)
	if err != nil {
		return nil, err
	}
	rk, cks := kdfRK(sharedSecret, dhOut)
	return &Ratchet{
		rand:    rand,
		rk:      rk,
		dhs:     dhs,
		dhr:     remoteDH,
		cks:     cks,
		skipped: map[skippedKey][]byte{},
	}, nil
}

// NewRatchetResponder creates the responder's state from the same shared
// secret and its own pre-published ratchet pair.
func NewRatchetResponder(rand io.Reader, sharedSecret []byte, ownDH *cryptoutil.DHKeyPair) *Ratchet {
	return &Ratchet{
		rand:    rand,
		rk:      append([]byte{}, sharedSecret...),
		dhs:     ownDH,
		skipped: map[skippedKey][]byte{},
	}
}

// Encrypt advances the sending chain and encrypts plaintext, binding ad.
func (r *Ratchet) Encrypt(plaintext, ad []byte) (*RatchetMsg, error) {
	if r.cks == nil {
		return nil, errors.New("groupcomm: ratchet cannot send before receiving the first message")
	}
	var mk []byte
	r.cks, mk = kdfCK(r.cks)
	msg := &RatchetMsg{DHPub: r.dhs.Public.Bytes(), PN: r.pn, N: r.ns}
	r.ns++
	fullAD := append(append([]byte{}, ad...), msg.header()...)
	ct, err := cryptoutil.Seal(mk, nil, plaintext, fullAD)
	if err != nil {
		return nil, err
	}
	msg.Ciphertext = ct
	return msg, nil
}

// Decrypt processes a received message, performing DH ratchet steps and
// skipped-key handling as needed. As in the reference algorithm, chain
// state may advance past a message that later fails authentication; its
// stored skipped key allows a legitimate retransmission to still decrypt.
func (r *Ratchet) Decrypt(msg *RatchetMsg, ad []byte) ([]byte, error) {
	fullAD := append(append([]byte{}, ad...), msg.header()...)
	// 1. Try skipped message keys.
	sk := skippedKey{dhPub: string(msg.DHPub), n: msg.N}
	if mk, ok := r.skipped[sk]; ok {
		pt, err := cryptoutil.Open(mk, nil, msg.Ciphertext, fullAD)
		if err != nil {
			return nil, err
		}
		delete(r.skipped, sk)
		return pt, nil
	}
	// 2. New remote ratchet key → skip remainder of old chain, DH step.
	if r.dhr == nil || string(msg.DHPub) != string(r.dhr.Bytes()) {
		if err := r.skipKeys(msg.PN); err != nil {
			return nil, err
		}
		if err := r.dhStep(msg.DHPub); err != nil {
			return nil, err
		}
	}
	// 3. Skip forward within the current receiving chain.
	if err := r.skipKeys(msg.N); err != nil {
		return nil, err
	}
	var mk []byte
	r.ckr, mk = kdfCK(r.ckr)
	r.nr++
	return cryptoutil.Open(mk, nil, msg.Ciphertext, fullAD)
}

// skipKeys advances the receiving chain to message number until, storing
// the intermediate keys for out-of-order arrivals.
func (r *Ratchet) skipKeys(until uint32) error {
	if r.ckr == nil {
		return nil
	}
	if until > r.nr+maxSkippedKeys {
		return fmt.Errorf("groupcomm: ratchet gap of %d exceeds skipped-key bound", until-r.nr)
	}
	for r.nr < until {
		var mk []byte
		r.ckr, mk = kdfCK(r.ckr)
		if len(r.skipped) >= maxSkippedKeys {
			return errors.New("groupcomm: skipped-key store full")
		}
		r.skipped[skippedKey{dhPub: string(r.dhr.Bytes()), n: r.nr}] = mk
		r.nr++
	}
	return nil
}

// dhStep performs a full DH ratchet step on receiving a new remote key.
func (r *Ratchet) dhStep(remotePub []byte) error {
	pub, err := cryptoutil.ParseDHPublic(remotePub)
	if err != nil {
		return err
	}
	r.pn = r.ns
	r.ns, r.nr = 0, 0
	r.dhr = pub
	dhOut, err := r.dhs.SharedSecret(r.dhr)
	if err != nil {
		return err
	}
	r.rk, r.ckr = kdfRK(r.rk, dhOut)
	r.dhs, err = cryptoutil.GenerateDHKeyPair(r.rand)
	if err != nil {
		return err
	}
	dhOut, err = r.dhs.SharedSecret(r.dhr)
	if err != nil {
		return err
	}
	r.rk, r.cks = kdfRK(r.rk, dhOut)
	return nil
}

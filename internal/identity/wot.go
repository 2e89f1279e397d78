package identity

import (
	"io"

	"repro/internal/cryptoutil"
)

// WebOfTrust is a decentralized endorsement graph: members sign statements
// that they have verified another member's key↔name binding. A verifier
// trusts a subject if an endorsement path of bounded depth connects them.
//
// The structure is deliberately faithful to PGP-style webs of trust,
// including the weakness §3.1 cites: a Sybil attacker can manufacture an
// arbitrarily large clique of mutually endorsing identities, and a single
// careless endorsement by an honest member connects the entire clique to
// the honest web.
type WebOfTrust struct {
	// endorsements[from] lists fingerprints `from` has endorsed; each entry
	// is signature-checked at insertion.
	endorsements map[cryptoutil.Hash][]cryptoutil.Hash
	members      map[cryptoutil.Hash]*Identity
}

// NewWebOfTrust creates an empty web.
func NewWebOfTrust() *WebOfTrust {
	return &WebOfTrust{
		endorsements: map[cryptoutil.Hash][]cryptoutil.Hash{},
		members:      map[cryptoutil.Hash]*Identity{},
	}
}

// AddMember registers an identity in the web.
func (w *WebOfTrust) AddMember(id *Identity) { w.members[id.Fingerprint()] = id }

// endorsementMsg is the canonical signed statement.
func endorsementMsg(from, to cryptoutil.Hash) []byte {
	msg := make([]byte, 0, 64+12)
	msg = append(msg, []byte("wot-endorse|")...)
	msg = append(msg, from[:]...)
	msg = append(msg, to[:]...)
	return msg
}

// Endorse records that signer vouches for the subject fingerprint. The
// endorsement is signed and verified before insertion; both parties must be
// registered members.
func (w *WebOfTrust) Endorse(signer *Identity, subject cryptoutil.Hash) bool {
	from := signer.Fingerprint()
	if _, ok := w.members[from]; !ok {
		return false
	}
	if _, ok := w.members[subject]; !ok {
		return false
	}
	msg := endorsementMsg(from, subject)
	sig := signer.Key.Sign(msg)
	if !cryptoutil.Verify(signer.Public(), msg, sig) {
		return false
	}
	for _, existing := range w.endorsements[from] {
		if existing == subject {
			return true
		}
	}
	w.endorsements[from] = append(w.endorsements[from], subject)
	return true
}

// SybilRing injects n attacker-controlled identities endorsing each other
// in a hub-and-spoke pattern (the hub endorses every spoke and vice versa
// — the cheapest topology that makes the whole ring reachable within two
// hops of any entry point), returning their fingerprints. Until an honest
// member endorses one of them the ring is isolated; afterwards every ring
// member becomes reachable — the amplification the paper warns about.
func (w *WebOfTrust) SybilRing(rand io.Reader, n int) ([]cryptoutil.Hash, error) {
	ids := make([]*Identity, n)
	fps := make([]cryptoutil.Hash, n)
	for i := 0; i < n; i++ {
		id, err := New(rand, "sybil", MechanismPseudonym)
		if err != nil {
			return nil, err
		}
		ids[i] = id
		fps[i] = id.Fingerprint()
		w.AddMember(id)
	}
	for i := 1; i < n; i++ {
		w.Endorse(ids[0], fps[i])
		w.Endorse(ids[i], fps[0])
	}
	return fps, nil
}

// ReachableSet returns the set of member fingerprints the verifier trusts
// within maxDepth hops (excluding the verifier itself).
func (w *WebOfTrust) ReachableSet(verifier cryptoutil.Hash, maxDepth int) map[cryptoutil.Hash]bool {
	visited := map[cryptoutil.Hash]bool{verifier: true}
	frontier := []cryptoutil.Hash{verifier}
	for d := 0; d < maxDepth && len(frontier) > 0; d++ {
		var next []cryptoutil.Hash
		for _, fp := range frontier {
			for _, to := range w.endorsements[fp] {
				if !visited[to] {
					visited[to] = true
					next = append(next, to)
				}
			}
		}
		frontier = next
	}
	delete(visited, verifier)
	return visited
}

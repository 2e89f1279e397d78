package identity

import (
	"math/rand"
	"testing"
	"time"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestMechanismProperties(t *testing.T) {
	// §3.1: none of the three basic mechanisms achieves all three
	// properties simultaneously.
	for _, m := range []Mechanism{MechanismPublicKey, MechanismPersonalInfo, MechanismPseudonym} {
		p := m.Properties()
		if p.Usable && p.Secure && p.Private {
			t.Errorf("%v claims all three properties; the paper says none do", m)
		}
	}
	if MechanismPublicKey.Properties().Usable {
		t.Error("public keys should not be usable (opaque strings)")
	}
	if !MechanismPublicKey.Properties().Secure {
		t.Error("public keys should be secure")
	}
	if MechanismPersonalInfo.Properties().Private {
		t.Error("personal info should not be private")
	}
	if Mechanism(99).String() != "unknown" {
		t.Error("unknown mechanism string")
	}
	for _, m := range []Mechanism{MechanismPublicKey, MechanismPersonalInfo, MechanismPseudonym} {
		if m.String() == "unknown" {
			t.Errorf("mechanism %d has no name", m)
		}
	}
}

func TestNewIdentity(t *testing.T) {
	id, err := New(rng(1), "alice", MechanismPseudonym)
	if err != nil {
		t.Fatal(err)
	}
	if id.Fingerprint().IsZero() {
		t.Error("zero fingerprint")
	}
	if len(id.Public()) == 0 {
		t.Error("no public key")
	}
}

func TestCAIssueAndVerify(t *testing.T) {
	ca, err := NewCA(rng(1), "RootCA")
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := New(rng(2), "alice", MechanismPseudonym)
	cert, err := ca.Issue("alice", alice.Public(), 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore()
	ts.AddCA(ca.Name(), ca.PublicKey())
	if err := ts.Verify(cert, 30*time.Minute); err != nil {
		t.Fatalf("valid cert rejected: %v", err)
	}
	if ca.Issued() != 1 {
		t.Errorf("issued = %d", ca.Issued())
	}
}

func TestCAVerifyFailures(t *testing.T) {
	ca, _ := NewCA(rng(1), "RootCA")
	other, _ := NewCA(rng(2), "OtherCA")
	alice, _ := New(rng(3), "alice", MechanismPseudonym)
	cert, _ := ca.Issue("alice", alice.Public(), time.Minute, time.Hour)

	ts := NewTrustStore()
	// Unknown issuer.
	if err := ts.Verify(cert, 30*time.Minute); err != ErrUnknownIssuer {
		t.Errorf("got %v, want ErrUnknownIssuer", err)
	}
	// Wrong pinned key.
	ts.AddCA(ca.Name(), other.PublicKey())
	if err := ts.Verify(cert, 30*time.Minute); err != ErrBadSignature {
		t.Errorf("got %v, want ErrBadSignature", err)
	}
	ts.AddCA(ca.Name(), ca.PublicKey())
	// Not yet valid / expired.
	if err := ts.Verify(cert, 0); err != ErrExpired {
		t.Errorf("got %v, want ErrExpired (before window)", err)
	}
	if err := ts.Verify(cert, 2*time.Hour); err != ErrExpired {
		t.Errorf("got %v, want ErrExpired (after window)", err)
	}
	// Tampered subject.
	bad := *cert
	bad.Subject = "mallory"
	if err := ts.Verify(&bad, 30*time.Minute); err != ErrBadSignature {
		t.Errorf("got %v, want ErrBadSignature for tampered cert", err)
	}
}

func TestCAEmptyWindowRejected(t *testing.T) {
	ca, _ := NewCA(rng(1), "RootCA")
	alice, _ := New(rng(2), "alice", MechanismPseudonym)
	if _, err := ca.Issue("alice", alice.Public(), time.Hour, time.Hour); err == nil {
		t.Error("empty validity window accepted")
	}
}

func TestRevocationRequiresFreshCRL(t *testing.T) {
	ca, _ := NewCA(rng(1), "RootCA")
	alice, _ := New(rng(2), "alice", MechanismPseudonym)
	cert, _ := ca.Issue("alice", alice.Public(), 0, time.Hour)

	ts := NewTrustStore()
	ts.AddCA(ca.Name(), ca.PublicKey())
	ca.Revoke(cert.Serial)

	// Verifier with a stale (absent) CRL still accepts — the revocation
	// weakness the paper references.
	if err := ts.Verify(cert, time.Minute); err != nil {
		t.Fatalf("stale-CRL verifier should accept: %v", err)
	}
	// After fetching the CRL it rejects.
	ts.SetCRL(ca.Name(), ca.CRL())
	if err := ts.Verify(cert, time.Minute); err != ErrRevoked {
		t.Errorf("got %v, want ErrRevoked", err)
	}
}

// TestCACompromiseForgesTrustedCerts demonstrates the paper's CA-compromise
// weakness: a forged certificate from a stolen CA key is indistinguishable
// from a real one.
func TestCACompromiseForgesTrustedCerts(t *testing.T) {
	ca, _ := NewCA(rng(1), "RootCA")
	mallory, _ := New(rng(3), "mallory", MechanismPseudonym)
	ts := NewTrustStore()
	ts.AddCA(ca.Name(), ca.PublicKey())

	stolen := ca.Compromise()
	rogue := ForgeCertificate(stolen, ca.Name(), "alice", mallory.Public(), 0, time.Hour)
	if err := ts.Verify(rogue, time.Minute); err != nil {
		t.Fatalf("forged cert should verify (that's the vulnerability): %v", err)
	}
	// And the CA's own CRL does not contain the rogue serial.
	ts.SetCRL(ca.Name(), ca.CRL())
	if err := ts.Verify(rogue, time.Minute); err != nil {
		t.Fatalf("CRL cannot save us from a forged serial: %v", err)
	}
}

func buildWeb(t *testing.T, names ...string) (*WebOfTrust, map[string]*Identity) {
	t.Helper()
	w := NewWebOfTrust()
	ids := map[string]*Identity{}
	for i, n := range names {
		id, err := New(rng(int64(100+i)), n, MechanismPseudonym)
		if err != nil {
			t.Fatal(err)
		}
		ids[n] = id
		w.AddMember(id)
	}
	return w, ids
}

func TestWoTPathFinding(t *testing.T) {
	w, ids := buildWeb(t, "alice", "bob", "carol", "dave")
	// alice -> bob -> carol; dave isolated.
	if !w.Endorse(ids["alice"], ids["bob"].Fingerprint()) {
		t.Fatal("endorse failed")
	}
	w.Endorse(ids["bob"], ids["carol"].Fingerprint())

	a, c, d := ids["alice"].Fingerprint(), ids["carol"].Fingerprint(), ids["dave"].Fingerprint()
	if !w.ReachableSet(a, 2)[c] {
		t.Error("alice should reach carol in 2 hops")
	}
	if w.ReachableSet(a, 1)[c] {
		t.Error("alice should not reach carol in 1 hop")
	}
	if w.ReachableSet(a, 10)[d] {
		t.Error("isolated dave should be unreachable")
	}
	if len(w.members) != 4 {
		t.Errorf("members = %d", len(w.members))
	}
}

func TestWoTEndorseValidation(t *testing.T) {
	w, ids := buildWeb(t, "alice")
	stranger, _ := New(rng(999), "stranger", MechanismPseudonym)
	if w.Endorse(stranger, ids["alice"].Fingerprint()) {
		t.Error("non-member endorser accepted")
	}
	if w.Endorse(ids["alice"], stranger.Fingerprint()) {
		t.Error("endorsement of non-member accepted")
	}
	// Duplicate endorsement is idempotent.
	w.AddMember(stranger)
	if !w.Endorse(ids["alice"], stranger.Fingerprint()) {
		t.Error("valid endorsement failed")
	}
	if !w.Endorse(ids["alice"], stranger.Fingerprint()) {
		t.Error("duplicate endorsement should succeed (idempotent)")
	}
	if n := len(w.endorsements[ids["alice"].Fingerprint()]); n != 1 {
		t.Errorf("endorsement stored %d times", n)
	}
}

// TestWoTSybilAmplification demonstrates §3.1's "WoT Sybil attacks": the
// ring is unreachable until one honest endorsement links it, after which
// the verifier transitively trusts the entire ring.
func TestWoTSybilAmplification(t *testing.T) {
	w, ids := buildWeb(t, "alice", "bob")
	w.Endorse(ids["alice"], ids["bob"].Fingerprint())
	sybils, err := w.SybilRing(rng(7), 50)
	if err != nil {
		t.Fatal(err)
	}
	a := ids["alice"].Fingerprint()
	if got := len(w.ReachableSet(a, 10)); got != 1 {
		t.Fatalf("before bridge: alice reaches %d members, want 1 (bob)", got)
	}
	// Bob makes one careless endorsement of a single sybil.
	w.Endorse(ids["bob"], sybils[0])
	trusted := w.ReachableSet(a, 10)
	if got := len(trusted); got != 51 { // bob + all 50 sybils
		t.Errorf("after bridge: alice reaches %d, want 51 (full ring amplification)", got)
	}
	for _, s := range sybils {
		if !trusted[s] {
			t.Fatalf("sybil %s not trusted after bridge", s.Short())
		}
	}
}

func TestReachableDepthBound(t *testing.T) {
	w, ids := buildWeb(t, "a", "b", "c")
	w.Endorse(ids["a"], ids["b"].Fingerprint())
	w.Endorse(ids["b"], ids["c"].Fingerprint())
	a := ids["a"].Fingerprint()
	if got := len(w.ReachableSet(a, 1)); got != 1 {
		t.Errorf("depth 1 reaches %d, want 1", got)
	}
	if got := len(w.ReachableSet(a, 2)); got != 2 {
		t.Errorf("depth 2 reaches %d, want 2", got)
	}
}

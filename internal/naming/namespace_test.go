package naming

import (
	"math/rand"
	"testing"

	"repro/internal/chain"
)

func TestValidNamespaceID(t *testing.T) {
	for _, ok := range []string{"id", "app", "x1", "abcdefghijklmnop"} {
		if !ValidNamespaceID(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	for _, bad := range []string{"", "Id", "a-b", "a.b", "abcdefghijklmnopq"} {
		if ValidNamespaceID(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func TestSplitName(t *testing.T) {
	if l, ns := SplitName("alice.id"); l != "alice" || ns != "id" {
		t.Errorf("split = %q %q", l, ns)
	}
	if l, ns := SplitName("bare"); l != "bare" || ns != "" {
		t.Errorf("split = %q %q", l, ns)
	}
	if l, ns := SplitName("a.b.c"); l != "a.b" || ns != "c" {
		t.Errorf("split = %q %q", l, ns)
	}
}

// nsWorld funds one creator and one registrant.
func nsWorld(t *testing.T) (*world, *Client, *Client) {
	t.Helper()
	creator, user := key(t, 1), key(t, 2)
	w := newWorld(t, map[chain.Address]uint64{
		creator.Fingerprint(): 1 << 30,
		user.Fingerprint():    1 << 30,
	})
	ccl := NewClient(creator, w.cfg, rand.New(rand.NewSource(3)), 0)
	ucl := NewClient(user, w.cfg, rand.New(rand.NewSource(4)), 0)
	return w, ccl, ucl
}

// launchNamespace runs preorder→reveal→ready for ns.
func launchNamespace(t *testing.T, w *world, cl *Client, ns string, baseFee, period uint64) {
	t.Helper()
	pre, err := cl.NamespacePreorder(ns)
	if err != nil {
		t.Fatal(err)
	}
	w.mine(pre)
	w.mine(cl.NamespaceReveal(ns, baseFee, period))
	w.mine(cl.NamespaceReady(ns))
}

func TestNamespaceLifecycleAndPricing(t *testing.T) {
	w, ccl, ucl := nsWorld(t)
	launchNamespace(t, w, ccl, "cheap", 1, 50)

	idx := w.index()
	ns, ok := idx.Namespace("cheap")
	if !ok || !ns.Ready || ns.BaseFee != 1 || ns.RegistrationPeriod != 50 {
		t.Fatalf("namespace state: %+v", ns)
	}
	if len(idx.Namespaces()) != 1 {
		t.Errorf("namespaces = %v", idx.Namespaces())
	}

	// Register a short label in the cheap namespace: fee follows the
	// namespace's base fee (1<<6 = 64 for a 2-char label), far below the
	// default schedule (10*64 = 640).
	pre, err := ucl.Preorder("ab.cheap")
	if err != nil {
		t.Fatal(err)
	}
	w.mine(pre)
	w.mine(ucl.RegisterWithFee("ab.cheap", []byte("v"), 64))
	rec, ok := w.index().Resolve("ab.cheap")
	if !ok {
		t.Fatal("namespace name did not resolve")
	}
	// Expiry follows the namespace's period, not the default 1000.
	if rec.ExpiresAt-rec.RegisteredAt != 50 {
		t.Errorf("period = %d, want 50", rec.ExpiresAt-rec.RegisteredAt)
	}
}

func TestNamespaceNotReadyRejectsNames(t *testing.T) {
	w, ccl, ucl := nsWorld(t)
	pre, _ := ccl.NamespacePreorder("pending")
	w.mine(pre)
	w.mine(ccl.NamespaceReveal("pending", 10, 100))
	// No ready yet: registrations in it must fail.
	npre, _ := ucl.Preorder("x.pending")
	w.mine(npre)
	w.mine(ucl.RegisterWithFee("x.pending", nil, 1<<20))
	if _, ok := w.index().Resolve("x.pending"); ok {
		t.Error("name registered in a namespace that is not ready")
	}
}

func TestNamespaceRevealRules(t *testing.T) {
	w, ccl, ucl := nsWorld(t)

	// Reveal without preorder fails.
	w.mine(ccl.NamespaceReveal("ghost", 10, 100))
	if _, ok := w.index().Namespace("ghost"); ok {
		t.Error("reveal without preorder accepted")
	}

	// Underpaid reveal fails.
	pre, _ := ccl.NamespacePreorder("under")
	w.mine(pre)
	op := &Op{Op: OpNamespaceReveal, Name: "under", Salt: ccl.salts["ns:under"], NSFee: 10, NSPeriod: 100}
	tx := &chain.Tx{Kind: chain.KindNameOp, Fee: 1, Nonce: ccl.nonce, Payload: op.Encode()}
	tx.Sign(ccl.key)
	ccl.SetNonce(ccl.nonce + 1) // the hand-built tx consumed this nonce
	w.mine(tx)
	if _, ok := w.index().Namespace("under"); ok {
		t.Error("underpaid namespace reveal accepted")
	}

	// Zero fee/period rules are invalid.
	pre2, _ := ccl.NamespacePreorder("zero")
	w.mine(pre2)
	w.mine(ccl.NamespaceReveal("zero", 0, 0))
	if _, ok := w.index().Namespace("zero"); ok {
		t.Error("zero-rule namespace accepted")
	}

	// Ready by a non-creator fails.
	launchNamespaceNoReady := func(ns string) {
		p, _ := ccl.NamespacePreorder(ns)
		w.mine(p)
		w.mine(ccl.NamespaceReveal(ns, 5, 100))
	}
	launchNamespaceNoReady("mine")
	w.mine(ucl.NamespaceReady("mine"))
	if n, _ := w.index().Namespace("mine"); n != nil && n.Ready {
		t.Error("non-creator launched the namespace")
	}
	// Creator succeeds; double-ready rejected.
	w.mine(ccl.NamespaceReady("mine"))
	w.mine(ccl.NamespaceReady("mine"))
	idx := w.index()
	if n, _ := idx.Namespace("mine"); n == nil || !n.Ready {
		t.Error("creator could not launch")
	}
}

func TestNamespaceSquattingPrevented(t *testing.T) {
	w, ccl, ucl := nsWorld(t)
	// Two parties preorder the same namespace; first reveal wins.
	preA, _ := ccl.NamespacePreorder("scarce")
	preB, _ := ucl.NamespacePreorder("scarce")
	w.mine(preA, preB)
	w.mine(ccl.NamespaceReveal("scarce", 10, 100))
	w.mine(ucl.NamespaceReveal("scarce", 99, 1))
	n, ok := w.index().Namespace("scarce")
	if !ok || n.Creator != ccl.Address() || n.BaseFee != 10 {
		t.Error("second revealer displaced the first")
	}
}

func TestUnclaimedSuffixUsesDefaults(t *testing.T) {
	// Names with dots whose suffix is not a registered namespace behave as
	// before namespaces existed (backwards compatibility).
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	pre, _ := cl.Preorder("alice.anything")
	w.mine(pre)
	w.mine(cl.Register("alice.anything", []byte("v")))
	rec, ok := w.index().Resolve("alice.anything")
	if !ok {
		t.Fatal("plain dotted name broken by namespace support")
	}
	if rec.ExpiresAt-rec.RegisteredAt != w.cfg.RegistrationPeriod {
		t.Error("default period not applied")
	}
}

// Namespaces lists ready namespace IDs.
func (idx *Index) Namespaces() []string {
	var out []string
	for id, n := range idx.namespaces {
		if n.Ready {
			out = append(out, id)
		}
	}
	return out
}

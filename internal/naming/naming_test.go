package naming

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

func key(t testing.TB, seed int64) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// world bundles a chain and mining helper for virtualchain tests.
type world struct {
	t   *testing.T
	c   *chain.Chain
	cfg Config
}

func newWorld(t *testing.T, alloc map[chain.Address]uint64) *world {
	return &world{
		t: t,
		c: chain.NewChain(chain.Config{
			InitialDifficulty: 4,
			GenesisAlloc:      alloc,
		}),
		cfg: DefaultConfig(),
	}
}

// mine puts txs in one new block on the head.
func (w *world) mine(txs ...*chain.Tx) {
	w.t.Helper()
	ts := time.Duration(w.c.Head().Header.Time) + time.Second
	b, err := w.c.NewBlock(w.c.HeadHash(), txs, ts, chain.Address{0xEE})
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.c.AddBlock(b); err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) index() *Index { return BuildIndex(w.c, w.cfg) }

func TestValidName(t *testing.T) {
	valid := []string{"alice", "a", "bob-42", "sub.domain", "x123"}
	invalid := []string{"", "Alice", "under_score", "-lead", "trail-", ".lead", "trail.", "sp ace",
		"waaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaytoolong"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("%q should be valid", n)
		}
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("%q should be invalid", n)
		}
	}
}

func TestRequiredFeeSchedule(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.RequiredFee("eightchr") != cfg.BaseFee {
		t.Error("8-char name should cost base fee")
	}
	if cfg.RequiredFee("abcdefg") != 2*cfg.BaseFee {
		t.Error("7-char name should cost 2x")
	}
	if cfg.RequiredFee("a") != 128*cfg.BaseFee {
		t.Error("1-char name should cost 128x")
	}
	if cfg.RequiredFee("a-very-long-name") != cfg.BaseFee {
		t.Error("long names cost base fee")
	}
}

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	op := &Op{Op: OpRegister, Name: "alice", Salt: []byte{1, 2}, Value: []byte("zone")}
	got, err := DecodeOp(op.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != op.Op || got.Name != op.Name || string(got.Value) != "zone" {
		t.Error("round trip mismatch")
	}
	if _, err := DecodeOp([]byte("{not json")); err == nil {
		t.Error("malformed payload accepted")
	}
}

func TestPreorderRegisterResolve(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)

	pre, err := cl.Preorder("alice.id")
	if err != nil {
		t.Fatal(err)
	}
	w.mine(pre)
	w.mine(cl.Register("alice.id", []byte("zonefile-hash")))

	idx := w.index()
	rec, ok := idx.Resolve("alice.id")
	if !ok {
		t.Fatal("name did not resolve")
	}
	if rec.Owner != kp.Fingerprint() {
		t.Error("wrong owner")
	}
	if string(rec.Value) != "zonefile-hash" {
		t.Error("wrong value")
	}
	if owner, ok := idx.ResolveOwner("alice.id"); !ok || owner != kp.Fingerprint() {
		t.Error("ResolveOwner mismatch")
	}
	if len(idx.Names()) != 1 || len(idx.names) != 1 {
		t.Error("names listing wrong")
	}
	if len(rec.History) != 1 || rec.History[0].Op != OpRegister {
		t.Error("history wrong")
	}
}

func TestRegisterWithoutPreorderRejected(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	w.mine(cl.Register("alice.id", nil)) // no preorder (salt empty)
	idx := w.index()
	if _, ok := idx.Resolve("alice.id"); ok {
		t.Error("register without preorder accepted")
	}
	if idx.rejected == 0 {
		t.Error("rejection not counted")
	}
}

func TestRegisterSameBlockAsPreorderRejected(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	pre, _ := cl.Preorder("alice.id")
	reg := cl.Register("alice.id", nil)
	w.mine(pre, reg) // same block: age 0 < MinPreorderAge
	if _, ok := w.index().Resolve("alice.id"); ok {
		t.Error("zero-age register accepted; front-running protection broken")
	}
}

func TestFrontRunningFailsWithoutSalt(t *testing.T) {
	// The attacker sees the victim's preorder commitment but cannot derive
	// the name; seeing the later register reveal, the attacker's own
	// register for the same name fails without a matching preorder.
	victim, attacker := key(t, 1), key(t, 2)
	w := newWorld(t, map[chain.Address]uint64{
		victim.Fingerprint():   10_000,
		attacker.Fingerprint(): 10_000,
	})
	vcl := NewClient(victim, w.cfg, rand.New(rand.NewSource(3)), 0)
	acl := NewClient(attacker, w.cfg, rand.New(rand.NewSource(4)), 0)

	pre, _ := vcl.Preorder("scarce")
	w.mine(pre)
	// Attacker races the reveal block with a register for the same name.
	w.mine(acl.Register("scarce", []byte("stolen")), vcl.Register("scarce", []byte("legit")))

	rec, ok := w.index().Resolve("scarce")
	if !ok {
		t.Fatal("name did not resolve")
	}
	if rec.Owner != victim.Fingerprint() {
		t.Error("attacker stole the name despite commitment scheme")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	a, b := key(t, 1), key(t, 2)
	w := newWorld(t, map[chain.Address]uint64{a.Fingerprint(): 10_000, b.Fingerprint(): 10_000})
	acl := NewClient(a, w.cfg, rand.New(rand.NewSource(3)), 0)
	bcl := NewClient(b, w.cfg, rand.New(rand.NewSource(4)), 0)

	preA, _ := acl.Preorder("taken")
	preB, _ := bcl.Preorder("taken")
	w.mine(preA, preB)
	w.mine(acl.Register("taken", []byte("a")))
	w.mine(bcl.Register("taken", []byte("b")))

	rec, _ := w.index().Resolve("taken")
	if rec == nil || rec.Owner != a.Fingerprint() {
		t.Error("second registrant displaced the first")
	}
}

func TestInsufficientFeeRejected(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 100_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	pre, _ := cl.Preorder("ab") // 2-char name: fee 64x base
	w.mine(pre)
	// Build a register with a too-small fee by hand.
	op := &Op{Op: OpRegister, Name: "ab", Salt: cl.salts["ab"], Value: nil}
	tx := &chain.Tx{Kind: chain.KindNameOp, Fee: w.cfg.BaseFee, Nonce: 1, Payload: op.Encode()}
	tx.Sign(kp)
	w.mine(tx)
	if _, ok := w.index().Resolve("ab"); ok {
		t.Error("underpaid short-name registration accepted")
	}
}

func TestUpdateTransfer(t *testing.T) {
	a, b := key(t, 1), key(t, 2)
	w := newWorld(t, map[chain.Address]uint64{a.Fingerprint(): 10_000, b.Fingerprint(): 10_000})
	acl := NewClient(a, w.cfg, rand.New(rand.NewSource(3)), 0)

	pre, _ := acl.Preorder("mutable")
	w.mine(pre)
	w.mine(acl.Register("mutable", []byte("v1")))
	w.mine(acl.Update("mutable", []byte("v2")))

	idx := w.index()
	rec, _ := idx.Resolve("mutable")
	if string(rec.Value) != "v2" {
		t.Fatalf("value = %q, want v2", rec.Value)
	}

	// Non-owner update must be ignored.
	bcl := NewClient(b, w.cfg, rand.New(rand.NewSource(4)), 0)
	w.mine(bcl.Update("mutable", []byte("evil")))
	rec, _ = w.index().Resolve("mutable")
	if string(rec.Value) != "v2" {
		t.Fatal("non-owner update applied")
	}

	// Transfer to b; then b can update, a cannot.
	w.mine(acl.Transfer("mutable", b.Fingerprint()))
	bcl.SetNonce(w.c.State().Nonce(b.Fingerprint()))
	w.mine(bcl.Update("mutable", []byte("v3")))
	rec, _ = w.index().Resolve("mutable")
	if rec.Owner != b.Fingerprint() || string(rec.Value) != "v3" {
		t.Fatal("transfer did not convey control")
	}
	w.mine(acl.Update("mutable", []byte("late")))
	rec, _ = w.index().Resolve("mutable")
	if string(rec.Value) != "v3" {
		t.Fatal("old owner still controls name after transfer")
	}

	if len(rec.History) < 4 {
		t.Errorf("history has %d events", len(rec.History))
	}
}

func TestExpiryAndReRegistration(t *testing.T) {
	a, b := key(t, 1), key(t, 2)
	w := newWorld(t, map[chain.Address]uint64{a.Fingerprint(): 10_000, b.Fingerprint(): 10_000})
	w.cfg.RegistrationPeriod = 3 // expire fast
	acl := NewClient(a, w.cfg, rand.New(rand.NewSource(3)), 0)

	pre, _ := acl.Preorder("fleeting")
	w.mine(pre)
	w.mine(acl.Register("fleeting", nil))
	if _, ok := w.index().Resolve("fleeting"); !ok {
		t.Fatal("fresh name should resolve")
	}
	for i := 0; i < 4; i++ {
		w.mine()
	}
	if _, ok := w.index().Resolve("fleeting"); ok {
		t.Fatal("expired name still resolves")
	}
	// b can now claim it.
	bcl := NewClient(b, w.cfg, rand.New(rand.NewSource(4)), 0)
	pre2, _ := bcl.Preorder("fleeting")
	w.mine(pre2)
	w.mine(bcl.Register("fleeting", []byte("reclaimed")))
	rec, ok := w.index().Resolve("fleeting")
	if !ok || rec.Owner != b.Fingerprint() {
		t.Error("expired name could not be re-registered")
	}
}

func TestPreorderTTL(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	w.cfg.PreorderTTL = 2
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	pre, _ := cl.Preorder("stale")
	w.mine(pre)
	for i := 0; i < 3; i++ {
		w.mine()
	}
	w.mine(cl.Register("stale", nil))
	if _, ok := w.index().Resolve("stale"); ok {
		t.Error("register accepted after preorder TTL")
	}
}

func TestIndexDeterministicAcrossReplicas(t *testing.T) {
	kp := key(t, 1)
	w := newWorld(t, map[chain.Address]uint64{kp.Fingerprint(): 10_000})
	cl := NewClient(kp, w.cfg, rand.New(rand.NewSource(2)), 0)
	pre, _ := cl.Preorder("stable")
	w.mine(pre)
	w.mine(cl.Register("stable", []byte("v")))

	i1 := BuildIndex(w.c, w.cfg)
	i2 := BuildIndex(w.c, w.cfg)
	r1, _ := i1.Resolve("stable")
	r2, _ := i2.Resolve("stable")
	if r1 == nil || r2 == nil || r1.Owner != r2.Owner || string(r1.Value) != string(r2.Value) {
		t.Error("replayed indexes disagree")
	}
}

func TestCentralizedRegistrarHappyPath(t *testing.T) {
	nw := simnet.New(1)
	reg := NewCentralizedRegistrar(nw.AddNode())
	client := NewRegistrarClient(nw.AddNode(), reg.Node().ID(), time.Minute)

	owner := chain.Address{7}
	var okReg bool
	client.Register("alice", owner, []byte("v"), func(ok bool) { okReg = ok })
	nw.RunAll()
	if !okReg {
		t.Fatal("register failed")
	}
	var rec *Record
	client.Resolve("alice", func(r *Record, found bool) { rec = r })
	nw.RunAll()
	if rec == nil || rec.Owner != owner {
		t.Fatal("resolve failed")
	}
	// Duplicate registration fails.
	client.Register("alice", chain.Address{8}, nil, func(ok bool) { okReg = ok })
	nw.RunAll()
	if okReg {
		t.Error("duplicate registration accepted")
	}
	if len(reg.names) != 1 {
		t.Errorf("names = %d", len(reg.names))
	}
}

func TestCentralizedRegistrarCensorshipAndSeizure(t *testing.T) {
	nw := simnet.New(2)
	reg := NewCentralizedRegistrar(nw.AddNode())
	client := NewRegistrarClient(nw.AddNode(), reg.Node().ID(), time.Minute)

	client.Register("dissident", chain.Address{1}, nil, func(bool) {})
	nw.RunAll()
	reg.Seize("dissident", chain.Address{66})
	var rec *Record
	client.Resolve("dissident", func(r *Record, found bool) { rec = r })
	nw.RunAll()
	if rec == nil || rec.Owner != (chain.Address{66}) {
		t.Error("seizure did not take effect")
	}
	reg.Ban("dissident")
	found := true
	client.Resolve("dissident", func(r *Record, f bool) { found = f })
	nw.RunAll()
	if found {
		t.Error("banned name still resolves")
	}
	var okReg bool
	client.Register("dissident", chain.Address{1}, nil, func(ok bool) { okReg = ok })
	nw.RunAll()
	if okReg {
		t.Error("banned name re-registered")
	}
}

func TestCentralizedRegistrarSPOF(t *testing.T) {
	nw := simnet.New(3)
	reg := NewCentralizedRegistrar(nw.AddNode())
	client := NewRegistrarClient(nw.AddNode(), reg.Node().ID(), 5*time.Second)
	client.Register("x", chain.Address{1}, nil, func(bool) {})
	nw.RunAll()
	reg.Node().Crash()
	found := true
	client.Resolve("x", func(r *Record, f bool) { found = f })
	nw.RunAll()
	if found {
		t.Error("resolution succeeded with registrar down — no SPOF?")
	}
}

func TestZookoTriangleScores(t *testing.T) {
	scores := TriangleScores()
	if len(scores) != 5 {
		t.Fatalf("got %d schemes", len(scores))
	}
	all := 0
	for _, s := range scores {
		if s.Caveat == "" {
			t.Errorf("%s has no caveat", s.Scheme)
		}
		if s.HumanMeaningful && s.Secure && s.Decentralized {
			all++
			if s.Scheme != "blockchain" {
				t.Errorf("%s claims all three corners; only blockchain should", s.Scheme)
			}
		}
	}
	if all != 1 {
		t.Errorf("%d schemes claim all corners, want exactly 1", all)
	}
}

// TestIndexInvariantsProperty applies random operation sequences from
// random actors and checks structural invariants: a resolvable name has
// exactly one owner, its history heights ascend, expiry is in the future,
// and replaying the chain twice produces identical state.
func TestIndexInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		actors := make([]*cryptoutil.KeyPair, 3)
		clients := make([]*Client, 3)
		alloc := map[chain.Address]uint64{}
		cfg := DefaultConfig()
		cfg.RegistrationPeriod = 6 + uint64(rng.Intn(10))
		for i := range actors {
			kp, err := cryptoutil.GenerateKeyPair(rng)
			if err != nil {
				return false
			}
			actors[i] = kp
			alloc[kp.Fingerprint()] = 1 << 30
		}
		c := chain.NewChain(chain.Config{InitialDifficulty: 4, GenesisAlloc: alloc})
		for i := range clients {
			clients[i] = NewClient(actors[i], cfg, rng, 0)
		}
		names := []string{"aa", "bb.name", "cc-long-name"}
		mine := func(txs []*chain.Tx) bool {
			ts := time.Duration(c.Head().Header.Time) + time.Second
			b, err := c.NewBlock(c.HeadHash(), txs, ts, chain.Address{1})
			if err != nil {
				return false
			}
			return c.AddBlock(b) == nil
		}
		for round := 0; round < 12; round++ {
			var txs []*chain.Tx
			for a := 0; a < 3; a++ {
				if rng.Intn(2) == 0 {
					continue
				}
				cl := clients[a]
				name := names[rng.Intn(len(names))]
				switch rng.Intn(4) {
				case 0:
					if tx, err := cl.Preorder(name); err == nil {
						txs = append(txs, tx)
					}
				case 1:
					txs = append(txs, cl.Register(name, []byte{byte(round)}))
				case 2:
					txs = append(txs, cl.Update(name, []byte{byte(round), 1}))
				case 3:
					txs = append(txs, cl.Transfer(name, actors[rng.Intn(3)].Fingerprint()))
				}
			}
			if !mine(txs) {
				return false
			}
		}
		i1 := BuildIndex(c, cfg)
		i2 := BuildIndex(c, cfg)
		for _, n := range names {
			r1, ok1 := i1.Resolve(n)
			r2, ok2 := i2.Resolve(n)
			if ok1 != ok2 {
				return false
			}
			if !ok1 {
				continue
			}
			// Deterministic replay.
			if r1.Owner != r2.Owner || string(r1.Value) != string(r2.Value) || r1.ExpiresAt != r2.ExpiresAt {
				return false
			}
			// Unexpired and with ascending history.
			if i1.height >= r1.ExpiresAt {
				return false
			}
			for k := 1; k < len(r1.History); k++ {
				if r1.History[k].Height < r1.History[k-1].Height {
					return false
				}
			}
			// The current owner must appear in the history (registered or
			// received a transfer).
			found := false
			for _, ev := range r1.History {
				if ev.Owner == r1.Owner {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Names returns all currently resolvable names.
func (idx *Index) Names() []string {
	var out []string
	for n, rec := range idx.names {
		if idx.height < rec.ExpiresAt {
			out = append(out, n)
		}
	}
	return out
}

package chain

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Soundness and equivalence: each replaced mechanism against the one it
// replaced, which lives on here as the reference.

func TestCheckSigMemoIsContentKeyed(t *testing.T) {
	kp, other := testKey(t, 1), testKey(t, 2)
	tx := &Tx{To: Address{7}, Amount: 10, Fee: 1, Kind: KindPayment}
	tx.Sign(kp)
	pass := func(what string, tx *Tx) {
		t.Helper()
		if err := tx.CheckSig(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	fail := func(what string, tx *Tx) {
		t.Helper()
		if tx.CheckSig() == nil {
			t.Errorf("%s: passed", what)
		}
	}
	pass("fresh", tx)
	pass("again", tx)

	tx.Amount = 11
	fail("amount changed in place after a pass", tx)
	tx.Amount = 10
	pass("amount restored", tx)

	cp := *tx
	pass("unmodified copy", &cp)
	cp.To = Address{8}
	fail("copy of a verified tx, recipient changed", &cp)
	pass("original after its copy was tampered with", tx)

	sig := tx.Sig
	tx.Sig = append([]byte(nil), sig...)
	tx.Sig[0] ^= 1
	fail("signature bit flipped", tx)
	forged := &Tx{To: Address{7}, Amount: 10, Fee: 1, Kind: KindPayment}
	forged.Sign(other)
	tx.Sig = forged.Sig
	fail("another key's signature over the same fields", tx)
	tx.Sig = sig
	pass("signature restored", tx)

	tx.FromPub = other.Public
	fail("public key swapped", tx)
	tx.FromPub = kp.Public
	tx.From = other.Fingerprint()
	fail("sender address swapped", tx)
	tx.From = kp.Fingerprint()
	pass("sender restored", tx)
}

// Sign trusts only a key pair GenerateKeyPair checked and nobody has
// touched since. With any other pair it leaves the memo unset (clearing one
// an earlier Sign set), and CheckSig returns what ed25519 says.
func TestSignMemoNeedsSoundKey(t *testing.T) {
	kp, other := testKey(t, 1), testKey(t, 2)
	sign := func(kp *cryptoutil.KeyPair) *Tx {
		tx := &Tx{To: Address{7}, Amount: 10, Fee: 1, Kind: KindPayment}
		tx.Sign(kp)
		return tx
	}
	if tx := sign(kp); tx.verified != tx.ID() {
		t.Fatal("a generated key pair's signature is not memoised")
	}

	swapped := testKey(t, 3)
	swapped.Public = other.Public
	edited := testKey(t, 4)
	copy(edited.Private[ed25519.SeedSize:], other.Public)
	literal := &cryptoutil.KeyPair{Public: kp.Public, Private: kp.Private}
	for _, tc := range []struct {
		name string
		kp   *cryptoutil.KeyPair
		want string // the CheckSig error after ": tx <id>: ", or "" for a pass
	}{
		{"Public swapped for another key's", swapped, "invalid signature"},
		{"Private's public half edited", edited, "invalid signature"},
		{"a KeyPair literal", literal, ""},
	} {
		tx := sign(kp)
		tx.Sign(tc.kp)
		if !tx.verified.IsZero() {
			t.Errorf("%s: Sign set the memo", tc.name)
		}
		var want error
		if tc.want != "" {
			want = fmt.Errorf("chain: tx %s: %s", tx.ID().Short(), tc.want)
		}
		if got := tx.CheckSig(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: CheckSig: %v, want %v", tc.name, got, want)
		}
	}
}

// CheckSig only reads its Tx: eight goroutines check the same two
// transactions at once, one memoised by Sign and one rebuilt field by field
// (no memo, so ed25519 runs on every call), and -race sees no write.
func TestCheckSigConcurrent(t *testing.T) {
	signed := NewWallet(testKey(t, 1), 0).Pay(Address{7}, 10, 1)
	rebuilt := &Tx{From: signed.From, FromPub: signed.FromPub, To: signed.To, Amount: signed.Amount,
		Fee: signed.Fee, Nonce: signed.Nonce, Kind: signed.Kind, Payload: signed.Payload, Sig: signed.Sig}
	if rebuilt.ID() != signed.ID() || signed.verified.IsZero() || !rebuilt.verified.IsZero() {
		t.Fatal("want one memoised and one unmemoised copy of the same transaction")
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, tx := range []*Tx{signed, rebuilt} {
					if err := tx.CheckSig(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !rebuilt.verified.IsZero() {
		t.Error("CheckSig memoised the rebuilt transaction")
	}
}

// WireSize is arithmetic; it must stay the length of what ID hashes.
func TestWireSizeIsEncodingLength(t *testing.T) {
	w := NewWallet(testKey(t, 1), 0)
	for _, tx := range []*Tx{
		w.Pay(Address{9}, 10, 1),
		anchor(w, make([]byte, 700), 2), // longer than the stack scratch
		NewCoinbase(Address{3}, 50, 7),
	} {
		if got, want := tx.WireSize(), len(tx.appendEncoding(nil, true)); got != want {
			t.Errorf("%s tx: WireSize %d, encoding is %d bytes", tx.Kind, got, want)
		}
	}
}

// bigIntMeetsTarget is the proof-of-work test as it was: hash ≤ ⌊2²⁵⁶/d⌋ in
// math/big.
func bigIntMeetsTarget(hash cryptoutil.Hash, d uint64) bool {
	if d == 0 {
		d = 1
	}
	target := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 256), new(big.Int).SetUint64(d))
	return new(big.Int).SetBytes(hash[:]).Cmp(target) <= 0
}

func TestWorkTargetMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []uint64{0, 1, 2, 3, 1 << 10, 1 << 20, 1 << 63, 1<<64 - 1} {
		target := workTarget(d)
		hashes := []cryptoutil.Hash{{}, target}
		var ones cryptoutil.Hash
		for i := range ones {
			ones[i] = 0xFF
		}
		hashes = append(hashes, ones)
		// The target's neighbours on both sides.
		for _, delta := range []int64{-1, 1} {
			v := new(big.Int).Add(new(big.Int).SetBytes(target[:]), big.NewInt(delta))
			if v.Sign() >= 0 && v.BitLen() <= 256 {
				var h cryptoutil.Hash
				v.FillBytes(h[:])
				hashes = append(hashes, h)
			}
		}
		for i := 0; i < 2000; i++ {
			var h cryptoutil.Hash
			rng.Read(h[:])
			// Shift some samples down to the target's magnitude, where the
			// two outcomes are about equally likely.
			for z := 0; z < i%9 && z < len(h); z++ {
				h[z] = 0
			}
			hashes = append(hashes, h)
		}
		for _, h := range hashes {
			got := bytes.Compare(h[:], target[:]) <= 0
			if want := bigIntMeetsTarget(h, d); got != want {
				t.Fatalf("difficulty %d, hash %s: byte compare says %v, big.Int says %v", d, h, got, want)
			}
		}
	}
	// And through the header: a header ground at a difficulty above
	// sealWork meets the seal target, by either test, and no earlier nonce
	// did.
	h := Header{Difficulty: 1 << 10, Height: 3}
	h.Grind()
	if !h.MeetsTarget() || !bigIntMeetsTarget(h.Hash(), sealWork) {
		t.Error("ground header does not meet its seal target")
	}
	for n := uint64(0); n < h.Nonce; n++ {
		if probe := (Header{Difficulty: 1 << 10, Height: 3, Nonce: n}); bigIntMeetsTarget(probe.Hash(), sealWork) {
			t.Fatalf("Grind stopped at nonce %d, but nonce %d already met the seal target", h.Nonce, n)
		}
	}
}

// referenceSelect is Select as it was before the pool was indexed: regroup
// the whole pool by sender and sort each group on every call, then pick the
// best applicable head until none is left. pool is keyed by transaction ID
// and loses its bad signatures, as the old pool did.
func referenceSelect(pool map[cryptoutil.Hash]*Tx, st *State, max int) []*Tx {
	lessHash := func(a, b cryptoutil.Hash) bool { return bytes.Compare(a[:], b[:]) < 0 }
	bySender := map[Address][]*Tx{}
	for id, tx := range pool {
		if err := tx.CheckSig(); err != nil {
			delete(pool, id)
			continue
		}
		bySender[tx.From] = append(bySender[tx.From], tx)
	}
	for _, seq := range bySender {
		seq := seq
		sort.Slice(seq, func(i, j int) bool {
			if seq[i].Nonce != seq[j].Nonce {
				return seq[i].Nonce < seq[j].Nonce
			}
			if seq[i].Fee != seq[j].Fee {
				return seq[i].Fee > seq[j].Fee
			}
			return lessHash(seq[i].ID(), seq[j].ID())
		})
	}
	work := st.Clone()
	var out []*Tx
	idx := map[Address]int{}
	for len(out) < max {
		var best *Tx
		var bestID cryptoutil.Hash
		for from, seq := range bySender {
			i := idx[from]
			if i >= len(seq) {
				continue
			}
			tx := seq[i]
			if work.checkTx(tx, tx.ID()) != nil {
				continue
			}
			id := tx.ID()
			if best == nil || tx.Fee > best.Fee || (tx.Fee == best.Fee && lessHash(id, bestID)) {
				best, bestID = tx, id
			}
		}
		if best == nil {
			break
		}
		if err := work.applyTx(best, best.ID()); err != nil {
			break
		}
		out = append(out, best)
		idx[best.From]++
	}
	return out
}

// randomPool draws a pool over the given keys: per sender a run of nonces
// from the state's next one with random gaps, small fees (so that ties are
// common), amounts that sometimes exceed the balance, signatures that are
// sometimes broken, payments between the senders (so that a pick can make a
// parked head affordable), and same-nonce conflicts. Conflicts are drawn at
// a sender's last nonce only: with a later nonce queued behind the loser
// the indexed Select goes on where the reference parks the sender, which is
// TestSelectSkipsWhatCannotBeMined's subject.
func randomPool(rng *rand.Rand, keys []*cryptoutil.KeyPair, st *State) []*Tx {
	var txs []*Tx
	draw := func(kp *cryptoutil.KeyPair, nonce uint64) {
		tx := &Tx{
			To:     keys[rng.Intn(len(keys))].Fingerprint(),
			Amount: uint64(rng.Intn(60)),
			Fee:    uint64(rng.Intn(3)),
			Nonce:  nonce,
			Kind:   KindPayment,
		}
		tx.Sign(kp)
		switch rng.Intn(12) {
		case 0:
			tx.Sig = append([]byte(nil), tx.Sig...)
			tx.Sig[rng.Intn(len(tx.Sig))] ^= 0x10
		case 1:
			tx.Amount++ // signed over another amount
		}
		txs = append(txs, tx)
	}
	for _, kp := range keys {
		nonce := st.Nonce(kp.Fingerprint())
		n := rng.Intn(7)
		for i := 0; i < n; i++ {
			if rng.Intn(8) == 0 {
				nonce += 1 + uint64(rng.Intn(2)) // a gap
			}
			draw(kp, nonce)
			if i == n-1 {
				for c := rng.Intn(3); c > 0; c-- {
					draw(kp, nonce)
				}
			}
			nonce++
		}
	}
	rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
	return txs
}

func TestSelectMatchesReference(t *testing.T) {
	keys := make([]*cryptoutil.KeyPair, 5)
	for i := range keys {
		keys[i] = testKey(t, int64(40+i))
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		alloc := map[Address]uint64{}
		for _, kp := range keys {
			alloc[kp.Fingerprint()] = uint64(rng.Intn(150))
		}
		st := NewState(alloc)
		pool, ref := NewMempool(), map[cryptoutil.Hash]*Tx{}
		for _, tx := range randomPool(rng, keys, st) {
			if _, dup := ref[tx.ID()]; pool.Add(tx) == dup {
				t.Fatalf("seed %d: Add reported %v for a transaction the reference %v", seed, !dup, dup)
			}
			ref[tx.ID()] = tx
		}
		// Three blocks' worth: select, mine what was selected, select again
		// on the new state — the later rounds meet what the earlier ones
		// left in the queues.
		for round := 0; round < 3; round++ {
			max := rng.Intn(12)
			got, want := pool.Select(st, max), referenceSelect(ref, st, max)
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: selected %d, reference %d", seed, round, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d round %d: pick %d is %s, reference %s", seed, round, i, got[i].ID().Short(), want[i].ID().Short())
				}
			}
			st = st.Clone()
			for _, tx := range got {
				if err := st.applyTx(tx, tx.ID()); err != nil {
					t.Fatalf("seed %d round %d: selection does not apply: %v", seed, round, err)
				}
				delete(ref, tx.ID())
			}
			pool.RemoveMined(&Block{Txs: got})
			// What the state has now spent the indexed pool would evict and
			// the reference would park behind: take it out of both.
			for id, tx := range ref {
				if tx.Nonce < st.Nonce(tx.From) {
					delete(ref, id)
				}
			}
		}
	}
}

// The two inputs on which Select departs from the reference on purpose.
func TestSelectSkipsWhatCannotBeMined(t *testing.T) {
	kp := testKey(t, 1)
	addr := kp.Fingerprint()
	pay := func(nonce, fee uint64) *Tx {
		tx := &Tx{To: Address{9}, Amount: 1, Fee: fee, Nonce: nonce, Kind: KindPayment}
		tx.Sign(kp)
		return tx
	}
	same := func(got []*Tx, want ...*Tx) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// A nonce the given state has spent: evicted, and the sender's live
	// payments are selected. (The reference selects nothing, for good.)
	st := NewState(map[Address]uint64{addr: 100})
	spent, next, after := pay(0, 1), pay(1, 1), pay(2, 1)
	mined := pay(0, 5) // another nonce-0 payment was mined
	if err := st.applyTx(mined, mined.ID()); err != nil {
		t.Fatal(err)
	}
	pool := NewMempool()
	for _, tx := range []*Tx{spent, next, after} {
		pool.Add(tx)
	}
	if got := pool.Select(st, 10); !same(got, next, after) {
		t.Errorf("behind a spent nonce: selected %d payments, want the two live ones", len(got))
	}
	if pending(pool, spent.ID()) || len(pool.ids) != 2 {
		t.Errorf("spent nonce still pooled: %v, pool holds %d", pending(pool, spent.ID()), len(pool.ids))
	}

	// A same-nonce conflict with a later nonce behind it: the winner, then
	// the later nonce; the loser stays pooled until a state has spent its
	// nonce. (The reference stops at the loser.)
	st = NewState(map[Address]uint64{addr: 100})
	rich, cheap, later := pay(0, 9), pay(0, 1), pay(1, 1)
	pool = NewMempool()
	for _, tx := range []*Tx{cheap, later, rich} {
		pool.Add(tx)
	}
	if got := pool.Select(st, 10); !same(got, rich, later) {
		t.Errorf("behind a conflict loser: selected %d payments, want the winner and the later nonce", len(got))
	}
	if !pending(pool, cheap.ID()) {
		t.Error("conflict loser evicted while its nonce was unspent in the given state")
	}
	if got := referenceSelect(map[cryptoutil.Hash]*Tx{rich.ID(): rich, cheap.ID(): cheap, later.ID(): later}, st, 10); !same(got, rich) {
		t.Errorf("reference selected %d payments; it should park behind the loser", len(got))
	}
}

// A miner's pool, unlike a bare one, knows its chain's head state and
// refuses a payment that state has already spent.
func TestMinerPoolRefusesSpentNonce(t *testing.T) {
	kp := testKey(t, 1)
	cfg := minerCfg()
	cfg.GenesisAlloc = map[Address]uint64{kp.Fingerprint(): 100}
	m := NewMiner(simnet.New(1).AddNode(), NewChain(cfg), Address{0x4D}, 0)
	w := NewWallet(kp, 0)
	mined, late := w.Pay(Address{9}, 1, 1), &Tx{To: Address{8}, Amount: 1, Fee: 1, Kind: KindPayment}
	late.Sign(kp) // nonce 0 again
	extend(t, m.Chain(), []*Tx{mined}, Address{1})
	if m.Pool().Add(mined) || m.Pool().Add(late) {
		t.Error("pool admitted a nonce its chain's head has spent")
	}
	if !m.Pool().Add(w.Pay(Address{9}, 1, 1)) {
		t.Error("pool refused the sender's next nonce")
	}
	if !NewMempool().Add(late) {
		t.Error("a pool without a chain must admit everything")
	}
}

// mapState is State as it was: one map of balances, one of nonces.
type mapState struct {
	balances, nonces map[Address]uint64
}

func (s mapState) clone() mapState {
	out := mapState{map[Address]uint64{}, map[Address]uint64{}}
	for k, v := range s.balances {
		out.balances[k] = v
	}
	for k, v := range s.nonces {
		out.nonces[k] = v
	}
	return out
}

// apply is the old ApplyTx less the signature check, which every drawn
// transaction passes.
func (s mapState) apply(tx *Tx) bool {
	need := tx.Amount + tx.Fee
	if tx.Nonce != s.nonces[tx.From] || need < tx.Amount || s.balances[tx.From] < need {
		return false
	}
	s.balances[tx.From] -= need
	s.balances[tx.To] += tx.Amount
	s.nonces[tx.From]++
	return true
}

func TestStateMatchesMapModel(t *testing.T) {
	keys := make([]*cryptoutil.KeyPair, 4)
	for i := range keys {
		keys[i] = testKey(t, int64(60+i))
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Senders, and strangers that only ever receive.
		addrs := []Address{{1}, {0xFF, 1}, {0x80}}
		alloc := map[Address]uint64{}
		for _, kp := range keys {
			addrs = append(addrs, kp.Fingerprint())
			if rng.Intn(4) > 0 {
				alloc[kp.Fingerprint()] = uint64(rng.Intn(500))
			}
		}
		st := NewState(alloc)
		model := mapState{map[Address]uint64{}, map[Address]uint64{}}
		for k, v := range alloc {
			model.balances[k] = v
		}
		agree := func(what string, st *State, model mapState) {
			t.Helper()
			var supply uint64
			for _, a := range addrs {
				if st.Balance(a) != model.balances[a] || st.Nonce(a) != model.nonces[a] {
					t.Fatalf("seed %d, %s: %s has balance %d nonce %d, model %d and %d",
						seed, what, a.Short(), st.Balance(a), st.Nonce(a), model.balances[a], model.nonces[a])
				}
				supply += model.balances[a]
			}
			if totalSupply(st) != supply {
				t.Fatalf("seed %d, %s: supply %d, model %d", seed, what, totalSupply(st), supply)
			}
			for i := 1; i < len(st.accounts); i++ {
				if bytes.Compare(st.accounts[i-1].addr[:], st.accounts[i].addr[:]) >= 0 {
					t.Fatalf("seed %d, %s: accounts out of order at %d", seed, what, i)
				}
			}
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(6) {
			case 0: // a coinbase credit
				to, amt := addrs[rng.Intn(len(addrs))], uint64(rng.Intn(80))
				st.applyCoinbase(NewCoinbase(to, amt, uint64(op)))
				model.balances[to] += amt
			case 1: // clone, write to the clone, the original must not move
				cl, clModel := st.Clone(), model.clone()
				to := addrs[rng.Intn(len(addrs))]
				cl.applyCoinbase(NewCoinbase(to, 7, 0))
				clModel.balances[to] += 7
				agree("clone", cl, clModel)
				agree("original of a written clone", st, model)
				if rng.Intn(2) == 0 {
					st, model = cl, clModel
				}
			default: // a payment, at the right nonce or one off, affordable or not
				kp := keys[rng.Intn(len(keys))]
				tx := &Tx{
					To:     addrs[rng.Intn(len(addrs))],
					Amount: uint64(rng.Intn(120)),
					Fee:    uint64(rng.Intn(4)),
					Nonce:  model.nonces[kp.Fingerprint()] + uint64(rng.Intn(5)/4),
					Kind:   KindPayment,
				}
				if rng.Intn(30) == 0 {
					tx.Amount = ^uint64(0) - 1 // amount+fee overflows when the fee is 2 or 3
				}
				tx.Sign(kp)
				if got, want := st.applyTx(tx, tx.ID()) == nil, model.apply(tx); got != want {
					t.Fatalf("seed %d op %d: ApplyTx accepted %v, model %v", seed, op, got, want)
				}
			}
			agree("after an operation", st, model)
		}
	}
}

package cryptoutil

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestHashRoundTrip(t *testing.T) {
	h := SumHash([]byte("hello"))
	parsed, err := hex.DecodeString(h.String())
	if err != nil {
		t.Fatalf("String is not hex: %v", err)
	}
	if !bytes.Equal(parsed, h[:]) {
		t.Error("decoded hash differs from original")
	}
	if len(h.Short()) != 8 {
		t.Errorf("Short() = %q, want 8 hex chars", h.Short())
	}
}

func TestSumHashesMatchesConcat(t *testing.T) {
	a, b := []byte("foo"), []byte("bar")
	if SumHashes(a, b) != SumHash(append(append([]byte{}, a...), b...)) {
		t.Error("SumHashes differs from hashing the concatenation")
	}
}

func TestIsZero(t *testing.T) {
	var z Hash
	if !z.IsZero() {
		t.Error("zero hash should report IsZero")
	}
	if SumHash(nil).IsZero() {
		t.Error("sha256 of empty input is not the zero hash")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(kp.Public, []byte("tampered"), sig) {
		t.Error("signature over different message accepted")
	}
	other, _ := GenerateKeyPair(rand.Reader)
	if Verify(other.Public, msg, sig) {
		t.Error("signature accepted under wrong key")
	}
	if Verify(kp.Public[:10], msg, sig) {
		t.Error("truncated public key should verify false, not panic")
	}
}

func TestFingerprintStable(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	if kp.Fingerprint() != PublicFingerprint(kp.Public) {
		t.Error("fingerprint mismatch between pair and bare public key")
	}
}

func TestKeyPairSound(t *testing.T) {
	gen := func(seed int64) *KeyPair {
		kp, err := GenerateKeyPair(mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}
	if !gen(1).Sound() {
		t.Fatal("a generated pair is not sound")
	}
	other := gen(2)
	for _, tc := range []struct {
		name  string
		spoil func(kp *KeyPair)
	}{
		{"Public reassigned", func(kp *KeyPair) { kp.Public = other.Public }},
		{"Public edited", func(kp *KeyPair) { kp.Public[0] ^= 1 }},
		{"Private reassigned", func(kp *KeyPair) { kp.Private = other.Private }},
		{"Private's seed edited", func(kp *KeyPair) { kp.Private[0] ^= 1 }},
		{"Private's public half edited", func(kp *KeyPair) { kp.Private[ed25519.SeedSize] ^= 1 }},
		{"Private truncated", func(kp *KeyPair) { kp.Private = kp.Private[:ed25519.SeedSize] }},
	} {
		kp := gen(1)
		tc.spoil(kp)
		if kp.Sound() {
			t.Errorf("%s: still sound", tc.name)
		}
	}
	kp := gen(1)
	if lit := (&KeyPair{Public: kp.Public, Private: kp.Private}); lit.Sound() {
		t.Error("a literal pair is sound")
	}
	if cp := *kp; !cp.Sound() {
		t.Error("an untouched copy of a generated pair is not sound")
	}
}

func TestDHSharedSecretAgreement(t *testing.T) {
	alice, err := GenerateDHKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := GenerateDHKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := alice.SharedSecret(bob.Public)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bob.SharedSecret(alice.Public)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Error("X25519 shared secrets disagree")
	}
	reparsed, err := ParseDHPublic(alice.Public.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	s3, err := bob.SharedSecret(reparsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s3) {
		t.Error("re-parsed public key yields different secret")
	}
}

// TestGenerateDHKeyPairSeeded: equal seeds give equal pairs and leave the
// reader at equal offsets, pair after pair.
func TestGenerateDHKeyPairSeeded(t *testing.T) {
	a, b := mrand.New(mrand.NewSource(5)), mrand.New(mrand.NewSource(5))
	for i := 0; i < 16; i++ {
		ka, err := GenerateDHKeyPair(a)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := GenerateDHKeyPair(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ka.Private.Bytes(), kb.Private.Bytes()) || !ka.Public.Equal(kb.Public) {
			t.Fatalf("pair %d differs between equal seeds", i)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("after pair %d the readers are at different offsets", i)
		}
	}
	if _, err := GenerateDHKeyPair(bytes.NewReader(make([]byte, 31))); err == nil {
		t.Error("want error from a reader with fewer than 32 bytes")
	}
}

func TestParseDHPublicError(t *testing.T) {
	if _, err := ParseDHPublic([]byte{1, 2, 3}); err == nil {
		t.Error("want error for malformed X25519 public key")
	}
}

func TestHKDFDeterministicAndDistinct(t *testing.T) {
	ikm := []byte("input keying material")
	a := HKDF(ikm, []byte("salt"), []byte("ctx"), 64)
	b := HKDF(ikm, []byte("salt"), []byte("ctx"), 64)
	if !bytes.Equal(a, b) {
		t.Error("HKDF not deterministic")
	}
	c := HKDF(ikm, []byte("salt"), []byte("other"), 64)
	if bytes.Equal(a, c) {
		t.Error("different info should give different output")
	}
	d := HKDF(ikm, nil, []byte("ctx"), 64)
	if bytes.Equal(a, d) {
		t.Error("nil salt should differ from explicit salt")
	}
	if len(HKDF(ikm, nil, nil, 100)) != 100 {
		t.Error("wrong output length")
	}
}

// TestHKDFRFC5869Vector checks test case 1 from RFC 5869 appendix A.
func TestHKDFRFC5869Vector(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}
	info := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9}
	want := "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
	got := HKDF(ikm, salt, info, 42)
	if fmt.Sprintf("%x", got) != want {
		t.Errorf("HKDF RFC 5869 vector mismatch:\n got %x\nwant %s", got, want)
	}
}

func TestHKDFInvalidLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-length HKDF should panic")
		}
	}()
	HKDF([]byte("x"), nil, nil, 0)
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := HKDF([]byte("secret"), nil, nil, 32)
	nonce := []byte{1, 2, 3}
	pt := []byte("attack at dawn")
	ad := []byte("header")
	ct, err := Seal(key, nonce, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, nonce, ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Error("round trip mismatch")
	}
	if _, err := Open(key, nonce, ct, []byte("wrong ad")); err == nil {
		t.Error("tampered AD accepted")
	}
	ct[0] ^= 0xff
	if _, err := Open(key, nonce, ct, ad); err == nil {
		t.Error("tampered ciphertext accepted")
	}
}

func TestSealRejectsBadKey(t *testing.T) {
	if _, err := Seal([]byte("short"), nil, []byte("x"), nil); err == nil {
		t.Error("want error for non-32-byte key")
	}
	if _, err := Open([]byte("short"), nil, []byte("x"), nil); err == nil {
		t.Error("want error for non-32-byte key")
	}
}

func TestMerkleTreeKnownStructure(t *testing.T) {
	leaves := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	tree, err := NewMerkleTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	// [a b c] -> [H(ab) c'] -> [H(H(ab), c')] with c promoted unchanged.
	la, lb, lc := LeafHash(leaves[0]), LeafHash(leaves[1]), LeafHash(leaves[2])
	want := interiorHash(interiorHash(la, lb), lc)
	if treeRoot(tree) != want {
		t.Error("root does not match hand-computed structure")
	}
	if tree.NumLeaves() != 3 {
		t.Errorf("NumLeaves = %d, want 3", tree.NumLeaves())
	}
}

func TestMerkleEmptyError(t *testing.T) {
	if _, err := NewMerkleTree(nil); err == nil {
		t.Error("want error for empty leaf set")
	}
	if !MerkleRoot(nil).IsZero() {
		t.Error("MerkleRoot of empty input should be zero hash")
	}
}

func TestMerkleSingleLeaf(t *testing.T) {
	tree, err := NewMerkleTree([][]byte{[]byte("solo")})
	if err != nil {
		t.Fatal(err)
	}
	if treeRoot(tree) != LeafHash([]byte("solo")) {
		t.Error("single-leaf root should be the leaf hash")
	}
	proof, err := tree.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyProof(treeRoot(tree), []byte("solo"), proof) {
		t.Error("single-leaf proof rejected")
	}
}

func TestMerkleProofsAllLeavesVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100} {
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = []byte(fmt.Sprintf("leaf-%d", i))
		}
		tree, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !VerifyProof(treeRoot(tree), leaves[i], proof) {
				t.Errorf("n=%d: valid proof for leaf %d rejected", n, i)
			}
			if VerifyProof(treeRoot(tree), []byte("forged"), proof) {
				t.Errorf("n=%d: forged leaf accepted at %d", n, i)
			}
		}
	}
}

func TestMerkleProveOutOfRange(t *testing.T) {
	tree, _ := NewMerkleTree([][]byte{[]byte("a")})
	if _, err := tree.Prove(1); err == nil {
		t.Error("want error for out-of-range index")
	}
	if _, err := tree.Prove(-1); err == nil {
		t.Error("want error for negative index")
	}
}

func TestVerifyProofNil(t *testing.T) {
	if VerifyProof(Hash{}, []byte("x"), nil) {
		t.Error("nil proof must not verify")
	}
}

func TestMerkleLeafInteriorDomainSeparation(t *testing.T) {
	// A two-leaf tree's root must not equal the leaf hash of the
	// concatenated interior encoding — the prefixes must differ.
	l, r := LeafHash([]byte("a")), LeafHash([]byte("b"))
	root := interiorHash(l, r)
	asLeaf := LeafHash(append(append([]byte{}, l[:]...), r[:]...))
	if root == asLeaf {
		t.Error("interior and leaf hashing are not domain separated")
	}
}

// Property: every leaf of a randomly sized tree proves against the root,
// and proofs do not verify against a different root.
func TestMerkleProofProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		n := 1 + rng.Intn(40)
		leaves := make([][]byte, n)
		for i := range leaves {
			leaves[i] = make([]byte, 1+rng.Intn(32))
			rng.Read(leaves[i])
		}
		tree, err := NewMerkleTree(leaves)
		if err != nil {
			return false
		}
		i := rng.Intn(n)
		proof, err := tree.Prove(i)
		if err != nil {
			return false
		}
		if !VerifyProof(treeRoot(tree), leaves[i], proof) {
			return false
		}
		var wrong Hash
		rng.Read(wrong[:])
		return !VerifyProof(wrong, leaves[i], proof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The stack encodings hash what the prefixed concatenations hashed, for
// leaves on either side of the stack scratch's size.
func TestMerkleHashEncodings(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	for n := 0; n <= 100; n++ {
		data := make([]byte, n)
		rng.Read(data)
		if LeafHash(data) != SumHashes([]byte{0x00}, data) {
			t.Fatalf("LeafHash of %d bytes differs from SHA-256(0x00‖data)", n)
		}
	}
	var l, r Hash
	rng.Read(l[:])
	rng.Read(r[:])
	if interiorHash(l, r) != SumHashes([]byte{0x01}, l[:], r[:]) {
		t.Error("interiorHash differs from SHA-256(0x01‖l‖r)")
	}
}

func TestMerkleRootOfMatchesTree(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	for n := 0; n <= 300; n++ {
		hashes := make([]Hash, n)
		leaves := make([][]byte, n)
		for i := range hashes {
			rng.Read(hashes[i][:])
			leaves[i] = append([]byte(nil), hashes[i][:]...)
		}
		got, want := MerkleRootOf(hashes), MerkleRoot(leaves)
		if got != want {
			t.Fatalf("n=%d: MerkleRootOf %s, MerkleRoot %s", n, got.Short(), want.Short())
		}
		if n == 0 {
			if !got.IsZero() {
				t.Fatal("MerkleRootOf of no hashes is not the zero hash")
			}
			continue
		}
		tree, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		if got != treeRoot(tree) {
			t.Fatalf("n=%d: MerkleRootOf %s, tree root %s", n, got.Short(), treeRoot(tree).Short())
		}
	}
}

// Property: HKDF output length is always exactly as requested for lengths
// in (0, 8160].
func TestHKDFLengthProperty(t *testing.T) {
	f := func(ikm []byte, n uint16) bool {
		length := int(n)%1024 + 1
		return len(HKDF(ikm, nil, nil, length)) == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerkleBuild1k(b *testing.B) {
	leaves := make([][]byte, 1024)
	for i := range leaves {
		leaves[i] = big.NewInt(int64(i)).Bytes()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMerkleTree(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHKDF(b *testing.B) {
	ikm := []byte("benchmark input keying material")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HKDF(ikm, nil, []byte("bench"), 64)
	}
}

// treeRoot returns the tree's root hash.
func treeRoot(t *MerkleTree) Hash { return t.levels[len(t.levels)-1][0] }

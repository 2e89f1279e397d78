package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Spot-check multiplicative structure on every element.
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("a*inv(a) != 1 for a=%d", a)
		}
	}
	for i := 0; i < 1000; i++ {
		a, b, c := byte(i*7), byte(i*13+1), byte(i*31+5)
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			t.Fatal("multiplication not associative")
		}
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatal("distributivity violated")
		}
	}
	if gfMul(0, 123) != 0 || gfMul(123, 0) != 0 {
		t.Error("multiplication by zero")
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero should panic")
		}
	}()
	gfDiv(1, 0)
}

func TestGFExpPow(t *testing.T) {
	if gfExpPow(2, 0) != 1 || gfExpPow(0, 5) != 0 {
		t.Error("power edge cases wrong")
	}
	// a^3 == a*a*a
	for a := 1; a < 256; a++ {
		want := gfMul(gfMul(byte(a), byte(a)), byte(a))
		if gfExpPow(byte(a), 3) != want {
			t.Fatalf("a^3 mismatch for a=%d", a)
		}
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	for n := 1; n <= 8; n++ {
		id := identityMatrix(n)
		inv, ok := id.invert()
		if !ok {
			t.Fatalf("identity %d not invertible", n)
		}
		if !bytes.Equal(inv.data, id.data) {
			t.Fatalf("inverse of identity %d is not identity", n)
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		m := newMatrix(n, n)
		rng.Read(m.data)
		inv, ok := m.invert()
		if !ok {
			continue // singular random matrix; skip
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.data, identityMatrix(n).data) {
			t.Fatalf("m * m^-1 != I (n=%d)", n)
		}
	}
}

func TestSingularMatrixNotInvertible(t *testing.T) {
	m := newMatrix(2, 2) // all zeros
	if _, ok := m.invert(); ok {
		t.Error("zero matrix reported invertible")
	}
	r := newMatrix(2, 3)
	if _, ok := r.invert(); ok {
		t.Error("non-square matrix reported invertible")
	}
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative parity accepted")
	}
	if _, err := New(200, 100); err == nil {
		t.Error("n>256 accepted")
	}
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.k != 4 || c.n != 6 {
		t.Error("shard counts wrong")
	}
}

func TestEncodeSystematic(t *testing.T) {
	c, _ := New(4, 2)
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(shards[i], data[i]) {
			t.Errorf("shard %d not systematic", i)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	c, _ := New(4, 2)
	if _, err := c.Encode([][]byte{{1}}); err == nil {
		t.Error("wrong shard count accepted")
	}
	if _, err := c.Encode([][]byte{{1}, {2}, {3}, {4, 5}}); err == nil {
		t.Error("unequal shard lengths accepted")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	c, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	orig := []byte("the paper argues that decentralized storage must survive churn")
	data := c.Split(orig)
	full, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Erase every subset of up to 3 shards.
	n := c.n
	for mask := 0; mask < (1 << n); mask++ {
		erased := 0
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				erased++
			}
		}
		if erased == 0 || erased > c.n-c.k {
			continue
		}
		shards := make([][]byte, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				shards[i] = append([]byte{}, full[i]...)
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		got, err := c.Join(shards, len(orig))
		if err != nil {
			t.Fatalf("mask %b join: %v", mask, err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("mask %b: reconstruction mismatch", mask)
		}
		// Parity shards must be rebuilt, too.
		for i := range shards {
			if !bytes.Equal(shards[i], full[i]) {
				t.Fatalf("mask %b: shard %d differs after reconstruct", mask, i)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	shards := make([][]byte, 6)
	shards[0] = []byte{1}
	shards[1] = []byte{2}
	shards[2] = []byte{3}
	if err := c.Reconstruct(shards); err == nil {
		t.Error("reconstruct with 3 of 4 required shards should fail")
	}
}

func TestReconstructValidation(t *testing.T) {
	c, _ := New(2, 1)
	if err := c.Reconstruct(make([][]byte, 2)); err == nil {
		t.Error("wrong slot count accepted")
	}
	shards := [][]byte{{1}, {2, 3}, nil}
	if err := c.Reconstruct(shards); err == nil {
		t.Error("unequal lengths accepted")
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	c, _ := New(2, 1)
	full, _ := c.Encode([][]byte{{9}, {8}})
	if err := c.Reconstruct(full); err != nil {
		t.Error(err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c, _ := New(5, 0)
	for _, size := range []int{0, 1, 4, 5, 6, 99, 100, 101} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 31)
		}
		shards := c.Split(data)
		if len(shards) != 5 {
			t.Fatalf("size %d: got %d shards", size, len(shards))
		}
		got, err := c.Join(shards, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	c, _ := New(3, 0)
	if _, err := c.Join([][]byte{{1}}, 1); err == nil {
		t.Error("short shard list accepted")
	}
	if _, err := c.Join([][]byte{{1}, nil, {3}}, 1); err == nil {
		t.Error("nil shard accepted")
	}
	if _, err := c.Join([][]byte{{1}, {2}, {3}}, 10); err == nil {
		t.Error("oversize join accepted")
	}
}

// Property: for random (k, m), random data, and a random erasure pattern of
// at most m shards, reconstruction recovers the original bytes exactly.
func TestReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		m := rng.Intn(6)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		data := make([]byte, 1+rng.Intn(500))
		rng.Read(data)
		full, err := c.Encode(c.Split(data))
		if err != nil {
			return false
		}
		// Erase up to m random shards.
		erase := rng.Intn(m + 1)
		perm := rng.Perm(c.n)
		for _, idx := range perm[:erase] {
			full[idx] = nil
		}
		if err := c.Reconstruct(full); err != nil {
			return false
		}
		got, err := c.Join(full, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode4x2_64KB(b *testing.B) {
	c, _ := New(4, 2)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	shards := c.Split(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct8x4_64KB(b *testing.B) {
	c, _ := New(8, 4)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	full, _ := c.Encode(c.Split(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(full))
		copy(shards, full)
		shards[0], shards[3], shards[9], shards[11] = nil, nil, nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// identityMatrix returns the n×n identity.
func identityMatrix(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

package chunker

import (
	"bytes"
	"math/rand"
	"testing"
)

func testData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestDefaultPolIrreducible(t *testing.T) {
	if !irreducible53(DefaultPol) {
		t.Fatal("DefaultPol fails the irreducibility test")
	}
	if irreducible53(DefaultPol ^ 0b1010000) {
		// A perturbed polynomial being irreducible is possible in general,
		// but this particular one is not; the test guards against the
		// checker degenerating into always-true.
		t.Fatal("perturbed polynomial reported irreducible")
	}
}

func TestSplitRoundTrip(t *testing.T) {
	c, err := New(Defaults(1 << 10))
	if err != nil {
		t.Fatal(err)
	}
	data := testData(64<<10, 7)
	var joined []byte
	nchunks := 0
	c.Split(data, func(chunk []byte) {
		joined = append(joined, chunk...)
		nchunks++
	})
	if !bytes.Equal(joined, data) {
		t.Fatal("split chunks do not reassemble to the input")
	}
	if nchunks < 16 {
		t.Errorf("64KB at avg 1KB produced only %d chunks", nchunks)
	}
}

func TestSplitBounds(t *testing.T) {
	cfg := Defaults(512)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(128<<10, 9)
	chunks := c.SplitAll(data)
	for i, ch := range chunks {
		if len(ch) > cfg.MaxSize {
			t.Fatalf("chunk %d has %d bytes, max %d", i, len(ch), cfg.MaxSize)
		}
		if i < len(chunks)-1 && len(ch) < cfg.MinSize {
			t.Fatalf("non-final chunk %d has %d bytes, min %d", i, len(ch), cfg.MinSize)
		}
	}
	// All-zero input is the classic Rabin pathology: once the reset
	// marker leaves the window the digest sits at zero, so every allowed
	// position is a boundary and chunks come out at exactly MinSize —
	// still deterministic and still inside the bounds.
	zeros := make([]byte, 16<<10)
	zchunks := c.SplitAll(zeros)
	for i, ch := range zchunks {
		if i < len(zchunks)-1 && len(ch) != cfg.MinSize {
			t.Fatalf("zero-run chunk %d has %d bytes, want MinSize %d", i, len(ch), cfg.MinSize)
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	c, _ := New(Defaults(512))
	chunks := c.SplitAll(nil)
	if len(chunks) != 1 || len(chunks[0]) != 0 {
		t.Fatalf("empty input: got %d chunks", len(chunks))
	}
}

func TestSplitDeterministicAndReusable(t *testing.T) {
	c, _ := New(Defaults(512))
	data := testData(32<<10, 11)
	first := c.Cuts(data)
	// Interleave an unrelated split to prove instance state fully resets.
	c.Split(testData(4<<10, 12), func([]byte) {})
	second := c.Cuts(data)
	if len(first) != len(second) {
		t.Fatalf("cut count changed across reuse: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cut %d moved: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestContentLocality(t *testing.T) {
	cfg := Defaults(512)
	c, _ := New(cfg)
	data := testData(64<<10, 15)
	before := chunkSet(c, data)
	edited := append([]byte{}, data...)
	edited[31337] ^= 0x5a
	after := chunkSet(c, edited)
	changed := diffCount(before, after)
	if changed > 4 {
		t.Fatalf("one-byte edit changed %d chunks, want O(1)", changed)
	}
}

// chunkSet returns chunk contents keyed for multiset comparison.
func chunkSet(c *Chunker, data []byte) map[string]int {
	set := map[string]int{}
	c.Split(data, func(ch []byte) { set[string(ch)]++ })
	return set
}

// diffCount is the size of the larger one-sided multiset difference.
func diffCount(a, b map[string]int) int {
	d := 0
	for k, n := range a {
		if m := b[k]; n > m {
			d += n - m
		}
	}
	e := 0
	for k, n := range b {
		if m := a[k]; n > m {
			e += n - m
		}
	}
	if e > d {
		return e
	}
	return d
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{MinSize: 16, AvgSize: 256, MaxSize: 1024},   // min below window
		{MinSize: 128, AvgSize: 300, MaxSize: 1024},  // avg not a power of two
		{MinSize: 2048, AvgSize: 1024, MaxSize: 512}, // inverted bounds
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := New(Config{MinSize: 128, AvgSize: 512, MaxSize: 2048}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAverageChunkSizeNearTarget(t *testing.T) {
	cfg := Defaults(1 << 10)
	c, _ := New(cfg)
	data := testData(1<<20, 21)
	chunks := c.SplitAll(data)
	avg := len(data) / len(chunks)
	// The cut event is geometric with mean AvgSize, clipped by min/max;
	// accept a generous band.
	if avg < cfg.AvgSize/3 || avg > cfg.AvgSize*3 {
		t.Fatalf("mean chunk size %d, target %d", avg, cfg.AvgSize)
	}
}

// SplitAll is Split collecting the chunks into a slice.
func (c *Chunker) SplitAll(data []byte) [][]byte {
	var out [][]byte
	c.Split(data, func(chunk []byte) { out = append(out, chunk) })
	return out
}

// Cuts returns the end offset of every chunk of data — the variable-length
// chunk table a manifest records.
func (c *Chunker) Cuts(data []byte) []int {
	var cuts []int
	end := 0
	c.Split(data, func(chunk []byte) {
		end += len(chunk)
		cuts = append(cuts, end)
	})
	return cuts
}

// mulMod returns a·b mod m. Callers guarantee deg(m) <= 62 so the
// shift-then-reduce step cannot overflow.
func mulMod(a, b, m Pol) Pol {
	a = mod(a, m)
	var res Pol
	for b != 0 {
		if b&1 != 0 {
			res ^= a
		}
		b >>= 1
		a = mod(a<<1, m)
	}
	return res
}

// gcd returns the greatest common divisor of a and b over GF(2).
func gcd(a, b Pol) Pol {
	for b != 0 {
		a, b = b, mod(a, b)
	}
	return a
}

// irreducible53 reports whether f, of degree exactly 53, is irreducible
// over GF(2). Rabin's criterion for prime degree n needs only two checks:
// f shares no factor with x^2+x (i.e. has no linear factor), and
// x^(2^n) ≡ x (mod f).
func irreducible53(f Pol) bool {
	if f.Deg() != polDegree {
		return false
	}
	if gcd(f, Pol(0b110)) != 1 { // x^2 + x = x(x+1)
		return false
	}
	r := Pol(2) // x
	for i := 0; i < polDegree; i++ {
		r = mulMod(r, r, f) // square: x^(2^i) -> x^(2^(i+1))
	}
	return r == 2
}

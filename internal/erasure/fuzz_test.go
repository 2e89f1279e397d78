package erasure

import (
	"bytes"
	"testing"
)

// FuzzReedSolomonRoundTrip drives the full storage path — Split, Encode,
// lose up to m shards, Reconstruct, Join — under fuzzed data and fuzzed
// (k, m, loss pattern), and requires the original bytes and all parity
// shards to come back bit-identical. This is the property the §3.3 storage
// systems stake durability on.
func FuzzReedSolomonRoundTrip(f *testing.F) {
	f.Add([]byte("the barriers to overthrowing internet feudalism"), uint8(4), uint8(2), uint16(0b101))
	f.Add([]byte{}, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{0xFF}, uint8(7), uint8(4), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, mRaw uint8, dropMask uint16) {
		k := 1 + int(kRaw)%8
		m := int(mRaw) % 5
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		dataShards := c.Split(data)
		all, err := c.Encode(dataShards)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		want := make([][]byte, len(all))
		for i, s := range all {
			want[i] = append([]byte(nil), s...)
		}

		// Lose up to m shards, chosen by the fuzzed mask.
		lost := make([][]byte, len(all))
		copy(lost, all)
		dropped := 0
		for i := 0; i < len(lost) && dropped < m; i++ {
			if dropMask>>uint(i)&1 == 1 {
				lost[i] = nil
				dropped++
			}
		}
		if err := c.Reconstruct(lost); err != nil {
			t.Fatalf("Reconstruct after %d losses (k=%d m=%d): %v", dropped, k, m, err)
		}
		for i := range want {
			if !bytes.Equal(lost[i], want[i]) {
				t.Fatalf("shard %d differs after reconstruction", i)
			}
		}
		got, err := c.Join(lost[:k], len(data))
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: got %d bytes, want %d", len(got), len(data))
		}
	})
}

// FuzzReconstructArbitraryShards throws structurally hostile shard slices
// at Reconstruct — wrong counts, unequal lengths, too few survivors — and
// requires an error (never a panic, never silent success with bad input).
func FuzzReconstructArbitraryShards(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{1, 2, 3, 4}, uint8(3), uint16(0b11))
	f.Add(uint8(2), uint8(1), []byte{}, uint8(0), uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, kRaw, mRaw uint8, blob []byte, lens uint8, nilMask uint16) {
		k := 1 + int(kRaw)%8
		m := int(mRaw) % 5
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", k, m, err)
		}
		// Build n shard slots with fuzz-chosen lengths and nil holes.
		shards := make([][]byte, c.n)
		for i := range shards {
			if nilMask>>uint(i)&1 == 1 {
				continue
			}
			l := (int(lens) + i) % 9
			s := make([]byte, l)
			for j := range s {
				if len(blob) > 0 {
					s[j] = blob[(i+j)%len(blob)]
				}
			}
			shards[i] = s
		}
		// Must never panic; errors are fine and expected for most inputs.
		_ = c.Reconstruct(shards)
	})
}

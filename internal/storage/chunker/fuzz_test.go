package chunker

import (
	"bytes"
	"testing"
)

// FuzzChunkerRoundTrip: for arbitrary data and an arbitrary average-size
// selector, split→join is the identity and every chunk respects the
// configured bounds (the final chunk may run short).
func FuzzChunkerRoundTrip(f *testing.F) {
	f.Add([]byte("hello, content-defined world"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0}, 4096), uint8(2))
	f.Add(bytes.Repeat([]byte("abcd1234"), 1024), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, avgSel uint8) {
		avg := 256 << (avgSel % 4) // 256..2048, always a power of two
		cfg := Defaults(avg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("config rejected: %v", err)
		}
		var joined []byte
		count := 0
		c.Split(data, func(ch []byte) {
			count++
			if len(ch) > cfg.MaxSize {
				t.Fatalf("chunk %d has %d bytes, max %d", count, len(ch), cfg.MaxSize)
			}
			joined = append(joined, ch...)
		})
		if !bytes.Equal(joined, data) {
			t.Fatal("split chunks do not reassemble to the input")
		}
		if len(data) == 0 {
			if count != 1 {
				t.Fatalf("empty input emitted %d chunks, want 1", count)
			}
			return
		}
		// All but the final chunk must reach MinSize.
		short := 0
		c.Split(data, func(ch []byte) {
			if len(ch) < cfg.MinSize {
				short++
			}
		})
		if short > 1 {
			t.Fatalf("%d chunks below MinSize, only the final may be", short)
		}
	})
}

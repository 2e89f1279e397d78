package erasure

import (
	"errors"
	"fmt"
)

// Code is a systematic (k, n) Reed–Solomon erasure code: k data shards,
// n-k parity shards, reconstruction from any k of the n.
type Code struct {
	k, n int
	// enc is the n×k encoding matrix; its top k rows are the identity, so
	// the first k output shards are the data itself (systematic form).
	enc *matrix
}

// New creates a (dataShards, dataShards+parityShards) code. GF(2⁸)
// Vandermonde construction limits n to 256 total shards.
func New(dataShards, parityShards int) (*Code, error) {
	k, n := dataShards, dataShards+parityShards
	if k <= 0 || parityShards < 0 {
		return nil, fmt.Errorf("erasure: invalid shard counts k=%d m=%d", k, parityShards)
	}
	if n > 256 {
		return nil, fmt.Errorf("erasure: total shards %d exceeds GF(256) limit of 256", n)
	}
	// Build a systematic encoding matrix: V × (top k rows of V)⁻¹ has the
	// identity on top while preserving the any-k-rows-invertible property.
	v := vandermonde(n, k)
	top := v.subMatrix(0, k, 0, k)
	topInv, ok := top.invert()
	if !ok {
		return nil, errors.New("erasure: vandermonde top square not invertible (bug)")
	}
	return &Code{k: k, n: n, enc: v.mul(topInv)}, nil
}

// Split pads data to a multiple of k and slices it into k equal data
// shards. The original length must be carried out of band (Join takes it
// back).
func (c *Code) Split(data []byte) [][]byte {
	shardLen := (len(data) + c.k - 1) / c.k
	if shardLen == 0 {
		shardLen = 1
	}
	shards := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, shardLen)
		start := i * shardLen
		if start < len(data) {
			copy(shards[i], data[start:])
		}
	}
	return shards
}

// Join is the inverse of Split: it concatenates data shards and trims to
// size.
func (c *Code) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, fmt.Errorf("erasure: join needs %d data shards, got %d", c.k, len(shards))
	}
	var out []byte
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("erasure: join: data shard %d missing", i)
		}
		out = append(out, shards[i]...)
	}
	if size > len(out) {
		return nil, fmt.Errorf("erasure: join: size %d exceeds available %d", size, len(out))
	}
	return out[:size], nil
}

// Encode computes the n-k parity shards for k equal-length data shards and
// returns all n shards (data first, in systematic order).
func (c *Code) Encode(dataShards [][]byte) ([][]byte, error) {
	if len(dataShards) != c.k {
		return nil, fmt.Errorf("erasure: encode needs %d data shards, got %d", c.k, len(dataShards))
	}
	shardLen := len(dataShards[0])
	for i, s := range dataShards {
		if len(s) != shardLen {
			return nil, fmt.Errorf("erasure: shard %d length %d != %d", i, len(s), shardLen)
		}
	}
	out := make([][]byte, c.n)
	for i := 0; i < c.k; i++ {
		out[i] = dataShards[i]
	}
	for r := c.k; r < c.n; r++ {
		shard := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			coef := c.enc.at(r, col)
			if coef == 0 {
				continue
			}
			src := dataShards[col]
			for b := 0; b < shardLen; b++ {
				shard[b] ^= gfMul(coef, src[b])
			}
		}
		out[r] = shard
	}
	return out, nil
}

// Reconstruct fills in missing (nil) shards in place. shards must have
// length n; at least k entries must be non-nil and of equal length.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("erasure: reconstruct needs %d shard slots, got %d", c.n, len(shards))
	}
	present := 0
	shardLen := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		present++
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return errors.New("erasure: present shards have unequal lengths")
		}
	}
	if present == c.n {
		return nil // nothing to do
	}
	if present < c.k {
		return fmt.Errorf("erasure: only %d shards present, need %d", present, c.k)
	}

	// Select the first k present shards; build the k×k decode matrix from
	// their encoding rows and invert it to recover the data shards.
	rows := make([]int, 0, c.k)
	for i := 0; i < c.n && len(rows) < c.k; i++ {
		if shards[i] != nil {
			rows = append(rows, i)
		}
	}
	sub := newMatrix(c.k, c.k)
	for ri, r := range rows {
		for col := 0; col < c.k; col++ {
			sub.set(ri, col, c.enc.at(r, col))
		}
	}
	dec, ok := sub.invert()
	if !ok {
		return errors.New("erasure: decode matrix singular (bug: vandermonde rows should be independent)")
	}

	// Recover data shards: data = dec × available.
	data := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		row := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			coef := dec.at(i, col)
			if coef == 0 {
				continue
			}
			src := shards[rows[col]]
			for b := 0; b < shardLen; b++ {
				row[b] ^= gfMul(coef, src[b])
			}
		}
		data[i] = row
	}
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			shards[i] = data[i]
		}
	}
	// Re-encode any missing parity shards from the recovered data.
	for r := c.k; r < c.n; r++ {
		if shards[r] != nil {
			continue
		}
		shard := make([]byte, shardLen)
		for col := 0; col < c.k; col++ {
			coef := c.enc.at(r, col)
			if coef == 0 {
				continue
			}
			src := data[col]
			for b := 0; b < shardLen; b++ {
				shard[b] ^= gfMul(coef, src[b])
			}
		}
		shards[r] = shard
	}
	return nil
}

package chunker

import "fmt"

// windowSize is the sliding fingerprint window in bytes. 64 matches the
// restic/LBFS lineage: wide enough that boundaries depend on real
// content, narrow enough that an edit's influence dies out quickly.
const windowSize = 64

// Config sizes a chunker. AvgSize must be a power of two: the boundary
// test masks the low log2(AvgSize) bits of the fingerprint, making cuts a
// 1-in-AvgSize event per byte and the mean chunk size ≈ AvgSize.
type Config struct {
	// MinSize is the smallest cut distance; boundaries inside it are
	// ignored. Must be >= the 64-byte window.
	MinSize int
	// AvgSize is the target mean chunk size (power of two).
	AvgSize int
	// MaxSize forces a cut even when the content never triggers one.
	MaxSize int
}

// Defaults returns the conventional bounds around an average chunk size:
// min = avg/4, max = avg*4.
func Defaults(avg int) Config {
	return Config{MinSize: avg / 4, AvgSize: avg, MaxSize: avg * 4}
}

// Chunker cuts byte slices at content-defined boundaries. It is cheap to
// reuse (the per-polynomial tables are built once in New) and a single
// instance may be used for any number of Split calls; Split itself
// performs no heap allocation.
type Chunker struct {
	cfg       Config
	splitmask uint64
	polShift  uint
	tabOut    [256]uint64 // removes the byte leaving the window
	tabMod    [256]uint64 // reduces the byte entering the digest
	win       [windowSize]byte
	wpos      int
	digest    uint64
}

// New validates cfg and builds the fingerprint tables.
func New(cfg Config) (*Chunker, error) {
	if cfg.AvgSize <= 0 || cfg.AvgSize&(cfg.AvgSize-1) != 0 {
		return nil, fmt.Errorf("chunker: avg size %d is not a positive power of two", cfg.AvgSize)
	}
	if cfg.MinSize < windowSize {
		return nil, fmt.Errorf("chunker: min size %d below the %d-byte window", cfg.MinSize, windowSize)
	}
	if cfg.MinSize > cfg.AvgSize || cfg.AvgSize > cfg.MaxSize {
		return nil, fmt.Errorf("chunker: want min <= avg <= max, have %d/%d/%d", cfg.MinSize, cfg.AvgSize, cfg.MaxSize)
	}
	c := &Chunker{
		cfg:       cfg,
		splitmask: uint64(cfg.AvgSize - 1),
		polShift:  uint(polDegree - 8),
	}
	// tabOut[b]: the digest contribution of byte b once it has been
	// pushed windowSize-1 positions deep — xoring it out when b leaves
	// the window keeps the digest a fingerprint of exactly the window.
	for b := 0; b < 256; b++ {
		h := appendByte(0, byte(b))
		for i := 0; i < windowSize-1; i++ {
			h = appendByte(h, 0)
		}
		c.tabOut[b] = uint64(h)
	}
	// tabMod[i]: clears the 8 bits shifted past the polynomial degree and
	// folds in their remainder, keeping the digest reduced mod Pol.
	for b := 0; b < 256; b++ {
		p := Pol(b) << polDegree
		c.tabMod[b] = uint64(mod(p, DefaultPol) | p)
	}
	return c, nil
}

// appendByte feeds one byte into a reduced polynomial fingerprint.
func appendByte(h Pol, b byte) Pol {
	return mod(h<<8|Pol(b), DefaultPol)
}

// reset prepares for a fresh chunk. The digest is seeded by sliding in a
// one-byte marker (restic does the same) so the first window's
// fingerprint is not a plain prefix hash; once the marker leaves the
// window the digest depends on content alone. All-zero input therefore
// degenerates to MinSize cuts — bounded and deterministic, the accepted
// Rabin pathology.
func (c *Chunker) reset() {
	c.win = [windowSize]byte{}
	c.wpos = 0
	c.digest = 0
	c.slide(1)
}

// slide rolls the window forward by one byte.
func (c *Chunker) slide(b byte) {
	out := c.win[c.wpos]
	c.win[c.wpos] = b
	c.digest ^= c.tabOut[out]
	c.wpos++
	if c.wpos >= windowSize {
		c.wpos = 0
	}
	index := byte(c.digest >> c.polShift)
	c.digest = (c.digest<<8 | uint64(b)) ^ c.tabMod[index]
}

// Split cuts data at content-defined boundaries and passes each chunk to
// emit, in order. Chunks are subslices of data (no copying); every chunk
// is at most MaxSize and, except possibly the final one, at least
// MinSize. Empty input emits one empty chunk, mirroring the fixed-size
// splitter. Split allocates nothing, so a reused Chunker gives an
// allocation-free hot path.
func (c *Chunker) Split(data []byte, emit func(chunk []byte)) {
	if len(data) == 0 {
		emit(data)
		return
	}
	start := 0
	c.reset()
	for pos := 0; pos < len(data); pos++ {
		c.slide(data[pos])
		n := pos - start + 1
		if (n >= c.cfg.MinSize && c.digest&c.splitmask == 0) || n >= c.cfg.MaxSize {
			emit(data[start : pos+1])
			start = pos + 1
			c.reset()
		}
	}
	if start < len(data) {
		emit(data[start:])
	}
}

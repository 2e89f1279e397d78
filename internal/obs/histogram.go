package obs

import "math"

// Histogram is a log-linear histogram in the layout of HdrHistogram and
// DDSketch (Masson et al., VLDB 2019). A value's bucket is its float64
// exponent plus its top 6 mantissa bits, rounded to nearest: 64 buckets per
// power of two, each read back as its centre. The centre is within
// 2⁻⁷ ≈ 0.8 % of every value in the bucket, and a value with at most 7
// significant bits (every integer below 128) is a centre, so it reads back
// exactly. Zeros have their own count.
//
// Counts live in dense slices covering only the bucket range observed so
// far, plus a bounded margin on the side that grew, so memory follows the
// dynamic range (~7.7 kB for 1 ms–30 s), never the sample count. Count,
// Min and Max are exact and Sum is fixed-point, so Merge is integer
// addition and a merged histogram does not depend on merge order or on
// how the samples were split. The zero value is ready to use; NaN
// observations are ignored.
type Histogram struct {
	n, zeros int64
	sum      int64 // fixed point, in units of 1/sumScale
	min, max float64
	pos, neg buckets // positive values, and the magnitudes of negative ones
}

// sumScale is Sum's fixed-point scale: units of 1e-9, a nanosecond for the
// durations in seconds most histograms hold, so their sums are exact.
const sumScale = 1e9

// dropBits is how many low mantissa bits a bucket key discards (52 − 6).
const dropBits = 46

// bucketKey returns the bucket of a positive value: its bit pattern
// rounded to the nearest multiple of 2^dropBits. Float bits are monotone in
// the value, so keys are too.
func bucketKey(v float64) int { return int((math.Float64bits(v) + 1<<(dropBits-1)) >> dropBits) }

// bucketValue is the centre of bucket key.
func bucketValue(key int) float64 { return math.Float64frombits(uint64(key) << dropBits) }

// buckets is a dense run of counts for keys lo, lo+1, ….
type buckets struct {
	lo     int
	counts []int64
}

// growPad bounds the spare buckets cover adds on the side that grows: up
// to the run's current length, at most growPad. A range widening one key
// at a time (latencies creeping up) then reallocates once per growPad new
// keys instead of on every key, and a finished histogram holds at most
// growPad buckets it never used; the spare buckets count zero, which
// every reader skips.
const growPad = 32

// cover widens b to hold every key in [lo, hi].
func (b *buckets) cover(lo, hi int) {
	if n := len(b.counts); n > 0 {
		if lo >= b.lo && hi < b.lo+n {
			return
		}
		pad := min(n, growPad)
		if lo < b.lo {
			lo -= pad
		} else {
			lo = b.lo
		}
		if top := b.lo + n - 1; hi > top {
			hi += pad
		} else {
			hi = top
		}
	}
	counts := make([]int64, hi-lo+1)
	if len(b.counts) > 0 {
		copy(counts[b.lo-lo:], b.counts)
	}
	b.lo, b.counts = lo, counts
}

func (b *buckets) inc(key int) {
	if uint(key-b.lo) >= uint(len(b.counts)) {
		b.cover(key, key)
	}
	b.counts[key-b.lo]++
}

func (b *buckets) merge(o *buckets) {
	if len(o.counts) == 0 {
		return
	}
	b.cover(o.lo, o.lo+len(o.counts)-1)
	for i, c := range o.counts {
		b.counts[o.lo-b.lo+i] += c
	}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if v != v {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	switch { // the sum rounds half away from zero, like math.Round
	case v > 0:
		h.sum += int64(v*sumScale + 0.5)
		h.pos.inc(bucketKey(v))
	case v < 0:
		h.sum += int64(v*sumScale - 0.5)
		h.neg.inc(bucketKey(-v))
	default:
		h.zeros++
	}
}

// Merge folds other's samples into h, as if h had observed them too.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.zeros += other.zeros
	h.sum += other.sum
	h.pos.merge(&other.pos)
	h.neg.merge(&other.neg)
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.n) }

// Sum returns the total over all samples, to the nearest 1e-9 per sample.
func (h *Histogram) Sum() float64 { return float64(h.sum) / sumScale }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.Sum() / float64(h.n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1), interpolating linearly
// between the closest ranks; 0 when empty. Ranks read back as their
// bucket's centre clamped to [Min, Max], so q = 0 is exactly Min, q = 1 is
// exactly Max, and every quantile is within 2⁻⁷ of the exact one.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	pos := q * float64(h.n-1)
	lo := math.Floor(pos)
	v := h.at(int64(lo))
	if frac := pos - lo; frac > 0 {
		// Rounding can carry the interpolation past either rank near
		// ±MaxFloat64; the clamp keeps the quantile monotone in q.
		hi := h.at(int64(lo) + 1)
		v = min(max(v*(1-frac)+hi*frac, v), hi)
	}
	return v
}

// at returns the rank-th smallest sample (0-based) as its bucket reads back.
func (h *Histogram) at(rank int64) float64 {
	v := h.max
	for i := len(h.neg.counts) - 1; i >= 0; i-- {
		if rank -= h.neg.counts[i]; rank < 0 {
			v = -bucketValue(h.neg.lo + i)
			break
		}
	}
	if rank >= 0 {
		if rank -= h.zeros; rank < 0 {
			return 0
		}
		for i, c := range h.pos.counts {
			if rank -= c; rank < 0 {
				v = bucketValue(h.pos.lo + i)
				break
			}
		}
	}
	return min(max(v, h.min), h.max)
}

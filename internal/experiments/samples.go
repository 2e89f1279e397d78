package experiments

import (
	"math"
	"sort"
)

// samples holds every observation of a small batch so the tables print
// exact statistics — a handful of per-seed cells or per-operation
// latencies, where obs.Histogram's bucket error would show.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// mean is the arithmetic mean, summed in sorted order so the result does
// not depend on observation order; 0 when empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantile is the exact q-quantile (0 ≤ q ≤ 1), interpolating linearly
// between the closest ranks; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf is a bounded Zipf(s) sampler over objects {0, …, n-1}: object k is
// drawn with probability (k+1)^-s / H(n,s). Construction is O(n) via the
// Walker/Vose alias method; Draw is O(1) and allocation-free, so a
// prepared sampler can sit on a per-request hot path (the root
// alloc_test.go pins it at 0 allocs/op).
//
// s is the skew exponent: measured content workloads sit around s ≈ 0.9–1.2
// (web caches, IPFS requests in Trautwein et al.), where a handful of
// objects carry most of the demand and the tail is long.
type Zipf struct {
	n     int
	s     float64
	pmf   []float64
	prob  []float64
	alias []int32
}

// NewZipf builds a sampler over n objects with exponent s. n must be ≥ 1
// and s ≥ 0 (s = 0 is uniform).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("workload: NewZipf needs n >= 1, got %d", n))
	}
	if s < 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("workload: NewZipf needs s >= 0, got %v", s))
	}
	z := &Zipf{
		n:     n,
		s:     s,
		pmf:   make([]float64, n),
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	var h float64
	for k := 0; k < n; k++ {
		z.pmf[k] = math.Pow(float64(k+1), -s)
		h += z.pmf[k]
	}
	for k := range z.pmf {
		z.pmf[k] /= h
	}

	// Vose's stable alias construction: split columns into under- and
	// over-full, pair them off so every column holds its own probability
	// plus one alias.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range z.pmf {
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s0 := small[len(small)-1]
		small = small[:len(small)-1]
		l0 := large[len(large)-1]
		large = large[:len(large)-1]
		z.prob[s0] = scaled[s0]
		z.alias[s0] = l0
		scaled[l0] += scaled[s0] - 1
		if scaled[l0] < 1 {
			small = append(small, l0)
		} else {
			large = append(large, l0)
		}
	}
	// Floating-point residue: leftover columns are exactly full.
	for _, i := range large {
		z.prob[i] = 1
	}
	for _, i := range small {
		z.prob[i] = 1
	}
	return z
}

// N returns the number of objects.
func (z *Zipf) N() int { return z.n }

// P returns the exact probability of object i.
func (z *Zipf) P(i int) float64 { return z.pmf[i] }

// Draw samples one object from rng: a fair column pick plus one biased
// coin against the column's alias. Two RNG draws, zero allocations.
func (z *Zipf) Draw(rng *rand.Rand) int {
	i := rng.Intn(z.n)
	if rng.Float64() < z.prob[i] {
		return i
	}
	return int(z.alias[i])
}

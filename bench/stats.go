package main

import (
	"math/bits"
	"time"
)

// latHist is a log-linear histogram of virtual latencies in nanoseconds:
// values below 2^histSub are exact, larger ones keep their top histSubBits+1
// bits (relative error < 2^-10). It observes in O(1) without allocating, so
// recording an op's latency from inside a simulation callback costs the
// measured phase a few nanoseconds and no garbage, and its size (264 KiB)
// does not grow with the op count — the harness must not show up in
// allocs_per_op or heap_bytes_per_node.
type latHist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSubBits = 10
	histSub     = 1 << histSubBits
	// 33 octaves above the exact range reach 2^43 ns ≈ 2.4 virtual hours.
	histBuckets = 34 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - (histSubBits + 1)
	i := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := uint(i/histSub - 1)
	m := int64(i%histSub + histSub)
	return float64(m << e), float64((m + 1) << e)
}

func (h *latHist) observe(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *latHist) reset() { *h = latHist{} }

// quantile returns the q-quantile in seconds, interpolating by rank inside
// the bucket that holds it, so the value moves with the sample and two seeds
// never read the same to the last digit. 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / 1e9
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi / 1e9
}

// opStats is the scoreboard of one phase's op list: how many ops were
// attempted, how many resolved (exactly once each — seen is the per-op
// bitmap that proves it), how many met their success condition, and the
// virtual latency of every resolved op.
type opStats struct {
	attempted int
	resolved  int
	ok        int
	// dup counts resolutions of an op that had already resolved; any
	// non-zero value fails the run.
	dup  int
	seen []uint64
	lat  latHist
}

// reset clears the scoreboard for a phase of ops operations.
func (s *opStats) reset(ops int) {
	words := (ops + 63) / 64
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	s.seen = s.seen[:words]
	for i := range s.seen {
		s.seen[i] = 0
	}
	s.attempted, s.resolved, s.ok, s.dup = ops, 0, 0, 0
	s.lat.reset()
}

// resolve records the outcome of op id; lat is its virtual latency (for a
// failed op, the time until the failure was known).
func (s *opStats) resolve(id int, ok bool, lat time.Duration) {
	w, b := id>>6, uint64(1)<<(uint(id)&63)
	if s.seen[w]&b != 0 {
		s.dup++
		return
	}
	s.seen[w] |= b
	s.resolved++
	if ok {
		s.ok++
	}
	s.lat.observe(lat)
}

// resolvedOp reports whether op id has resolved.
func (s *opStats) resolvedOp(id int) bool { return s.seen[id>>6]&(1<<(uint(id)&63)) != 0 }

package obs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := h.Quantile(0.99); got < 99 || got > 100 {
		t.Errorf("p99 = %v, want in [99,100]", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5) // forces a sort
	h.Observe(1)        // must invalidate sort flag
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min after re-observe = %v, want 1", got)
	}
}

func TestHistogramQuantileMonotonicProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(v)
		}
		if h.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBucketHistogram(t *testing.T) {
	h := NewBucketHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	h.Observe(-1)
	h.Observe(10) // hi is exclusive
	h.Observe(99)
	for i := 0; i < h.NumBuckets(); i++ {
		c, lo, hi := h.Bucket(i)
		if c != 1 {
			t.Errorf("bucket %d [%v,%v) = %d, want 1", i, lo, hi, c)
		}
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("out of range = %d/%d, want 1/2", under, over)
	}
	if h.Count() != 13 {
		t.Errorf("count = %d, want 13", h.Count())
	}
}

func TestBucketHistogramTopEdgeRounding(t *testing.T) {
	h := NewBucketHistogram(0, 0.3, 3)
	h.Observe(math.Nextafter(0.3, 0)) // just under hi; rounding must not index out of range
	if h.Count() != 1 {
		t.Fatal("observation lost")
	}
}

func TestBucketHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBucketHistogram with hi<=lo should panic")
		}
	}()
	NewBucketHistogram(5, 5, 3)
}

// TestBucketHistogramMergeMatchesCombinedStream: splitting a stream across
// two histograms and merging them (in either order) must be indistinguishable
// from one histogram that saw everything — the property simnet's per-shard
// latency tables rely on.
func TestBucketHistogramMergeMatchesCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b, all := NewBucketHistogram(0, 30, 3000), NewBucketHistogram(0, 30, 3000), NewBucketHistogram(0, 30, 3000)
	for i := 0; i < 5000; i++ {
		v := rng.ExpFloat64()*4 - 0.5 // some underflow, some overflow
		all.Observe(v)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	ab, ba := NewBucketHistogram(0, 30, 3000), NewBucketHistogram(0, 30, 3000)
	ab.Merge(a)
	ab.Merge(b)
	ba.Merge(b)
	ba.Merge(a)
	for _, m := range []*BucketHistogram{ab, ba} {
		if m.Count() != all.Count() {
			t.Fatalf("merged count = %d, want %d", m.Count(), all.Count())
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
			if got, want := m.Quantile(q), all.Quantile(q); got != want {
				t.Errorf("merged q%.2f = %v, want %v", q, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge across different bounds should panic")
		}
	}()
	ab.Merge(NewBucketHistogram(0, 30, 300))
}

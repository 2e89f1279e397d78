package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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
	_ = h.Quantile(0.5)
	h.Observe(1) // a read must not freeze the histogram
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

// exactQuantile is the reference the histogram approximates: the
// q-quantile of the sorted samples, interpolating linearly between the
// closest ranks.
func exactQuantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := math.Floor(pos)
	v := sorted[int(lo)]
	if frac := pos - lo; frac > 0 {
		v = v*(1-frac) + sorted[int(lo)+1]*frac
	}
	return v
}

// relErr is the histogram's stated relative error bound, 2⁻⁷.
const relErr = 1.0 / 128

// sampleSets are the input shapes the error bound is checked on.
func sampleSets(rng *rand.Rand, n int) map[string][]float64 {
	sets := map[string][]float64{}
	for i := 0; i < n; i++ {
		sets["exponential"] = append(sets["exponential"], rng.ExpFloat64()*0.05)
		sets["lognormal"] = append(sets["lognormal"], math.Exp(rng.NormFloat64()*2-3))
		sets["small-integer"] = append(sets["small-integer"], float64(rng.Intn(128)))
		v := 0.0
		if rng.Intn(4) == 0 {
			v = rng.ExpFloat64()
		}
		sets["zero-heavy"] = append(sets["zero-heavy"], v)
		sets["signed"] = append(sets["signed"], rng.NormFloat64()*10)
	}
	return sets
}

func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, xs := range sampleSets(rng, 20000) {
		var h Histogram
		for _, v := range xs {
			h.Observe(v)
		}
		sort.Float64s(xs)
		var sum float64
		for _, v := range xs {
			sum += v
		}
		if h.Count() != len(xs) || h.Quantile(0) != xs[0] || h.Quantile(1) != xs[len(xs)-1] {
			t.Errorf("%s: count/min/max = %d/%v/%v, want %d/%v/%v", name,
				h.Count(), h.Quantile(0), h.Quantile(1), len(xs), xs[0], xs[len(xs)-1])
		}
		if math.Abs(h.Sum()-sum) > 1e-9*float64(len(xs)) {
			t.Errorf("%s: sum = %v, want %v", name, h.Sum(), sum)
		}
		for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
			got, want := h.Quantile(q), exactQuantile(xs, q)
			if name == "small-integer" && got != want {
				t.Errorf("%s: q%v = %v, want exactly %v", name, q, got, want)
			}
			if math.Abs(got-want) > relErr*math.Abs(want)+1e-15 {
				t.Errorf("%s: q%v = %v, exact %v: relative error %.4f > %.4f",
					name, q, got, want, math.Abs(got-want)/math.Abs(want), relErr)
			}
		}
	}
}

// TestHistogramMergeMatchesCombinedStream: a stream split across k
// histograms and merged in any order gives the same HistStat, bit for bit,
// as one histogram that saw every sample — the property per-shard and
// per-trial merges rely on.
func TestHistogramMergeMatchesCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{2, 3, 8} {
		for name, xs := range sampleSets(rng, 5000) {
			var all Histogram
			parts := make([]Histogram, k)
			for _, v := range xs {
				all.Observe(v)
				parts[rng.Intn(k)].Observe(v)
			}
			want := histStat(&all)
			for trial := 0; trial < 3; trial++ {
				var merged Histogram
				for _, i := range rng.Perm(k) {
					merged.Merge(&parts[i])
				}
				if got := histStat(&merged); got != want {
					t.Errorf("k=%d %s: merged %+v, want %+v", k, name, got, want)
				}
			}
		}
	}
}

// TestHistogramFootprint: memory follows the dynamic range, not the
// sample count.
func TestHistogramFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	lo, hi := math.Log(0.001), math.Log(30)
	for i := 0; i < 1_000_000; i++ {
		h.Observe(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	bytes := int(unsafe.Sizeof(h)) + 8*(cap(h.pos.counts)+cap(h.neg.counts))
	if bytes > 8<<10 {
		t.Errorf("1e6 samples over 1 ms–30 s hold %d B, want ≤ 8 kB", bytes)
	}
}

// TestHistogramObserveNoAllocs: once the range is established, Observe
// only increments.
func TestHistogramObserveNoAllocs(t *testing.T) {
	var h Histogram
	h.Observe(0.001)
	h.Observe(30)
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		if v *= 1.07; v > 30 {
			v = 0.001
		}
	}); allocs != 0 {
		t.Errorf("Observe allocates %.1f times per call", allocs)
	}
}

// BenchmarkObserve times the per-delivery cost simnet pays: one latency
// observation into an established range.
func BenchmarkObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 0.005 + rng.ExpFloat64()*0.05
	}
	var h Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&4095])
	}
}

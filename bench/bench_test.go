package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var f benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// shortConfig is a run small enough for go test.
func shortConfig(seed int64, trace bool, dir string) runConfig {
	return runConfig{seed: seed, seconds: 0.2, short: true, trace: trace, outDir: dir}
}

// TestBenchmarkFileMatchesTables checks that BENCHMARK.json and the tables
// the runner prints from name the same workloads and metrics, with the same
// units, directions and bounds, inside the limits the driver sets.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		jw := f.Workloads[i]
		if jw.Name != w.name || jw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the runner %q (%q)", i, jw.Name, jw.Why, w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the driver's limits", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the runner", kind, len(got), len(want))
		}
		for i, d := range want {
			j := got[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the runner %+v", kind, i, j, d)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s %q: name or unit %q outside the driver's alphabet", kind, d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s %q: better = %q", kind, d.name, d.better)
			}
			if seen[d.name] {
				t.Errorf("%s %q: name used twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.driver || d.driver <= 0 || d.driver > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the runner, want the same in (0, 0.25]", kind, d.name, j.Bound, d.driver)
			case bounded && d.driver < d.bound:
				t.Errorf("%s %q: the ten-seed bound %v is tighter than the one-seed bound %v", kind, d.name, d.driver, d.bound)
			case !bounded && j.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the driver's limits", len(perLayer), len(endToEnd))
	}
}

// TestRunsRepeatAndSeedsDiffer runs every workload at test scale: twice on
// seed 1 and once on seed 2. Every end-to-end metric must be emitted and
// finite; the simulated ones must be identical for one seed and differ
// between seeds; the counts must agree within their bounds.
func TestRunsRepeatAndSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var runs [3]metricSet
			for i, seed := range []int64{1, 1, 2} {
				r, err := run(w, shortConfig(seed, false, ""))
				if err != nil {
					t.Fatal(err)
				}
				if r.st.dup != 0 || r.st.resolved != r.st.attempted {
					t.Fatalf("seed %d: %d of %d ops resolved, %d twice", seed, r.st.resolved, r.st.attempted, r.st.dup)
				}
				runs[i] = r.endToEnd()
			}
			differs := false
			for _, d := range endToEnd {
				a, b, c := runs[0][d.name], runs[1][d.name], runs[2][d.name]
				for _, v := range []float64{a, b, c} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("%s = %v", d.name, v)
					}
				}
				switch d.kind {
				case "sim":
					if a != b {
						t.Errorf("%s: %v and %v on two runs of seed 1", d.name, a, b)
					}
					if a != c {
						differs = true
					}
				case "count":
					// Pools left warm by the first in-process run make the
					// second a little cheaper, and test-scale runs are short.
					if math.Abs(a-b) > 0.25*math.Max(a, 1) {
						t.Errorf("%s: %v and %v on two runs of seed 1", d.name, a, b)
					}
				}
			}
			if !differs {
				t.Error("no simulated metric differs between seeds 1 and 2")
			}
		})
	}
}

// TestTracedRunEmitsEveryLayerMetric runs the traced pass of one workload
// per engine at test scale and checks that every per-layer name comes out
// and that the span and layer files are written.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	for _, w := range []*workloadDef{&dhtMixedWorkload, &gossipShardedWorkload} {
		dir := t.TempDir()
		r, err := run(w, shortConfig(1, true, dir))
		if err != nil {
			t.Fatal(err)
		}
		m, files, err := r.traced()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d named", w.name, len(m), len(perLayer))
		}
		for _, d := range perLayer {
			if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v)", w.name, d.name, v, ok)
			}
		}
		if m["trace.spans"] < 10 || len(files) != 3 {
			t.Errorf("%s: %v spans, files %v", w.name, m["trace.spans"], files)
		}
		for _, f := range files {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s: %v (size %d)", f, err, st.Size())
			}
		}
		for _, s := range r.tr.spans {
			if s.End < s.Start || s.Parent >= s.ID {
				t.Fatalf("span %+v is malformed", s)
			}
		}
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	var xs []float64
	for i := 0; i < 100_000; i++ {
		d := time.Duration(i*i%7_000_003) * time.Microsecond
		h.observe(d)
		xs = append(xs, d.Seconds())
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantile(q); math.Abs(got-want) > want/500 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 1023, 1024, 1025, 4097, 1 << 30, 1<<43 - 1} {
		lo, hi := histBounds(histIndex(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns falls in bucket [%v, %v)", ns, lo, hi)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestNoiseReadings checks both readings of the noise check on made-up sets:
// what each flags and what it lets through.
func TestNoiseReadings(t *testing.T) {
	host := metricDef{name: "ops_per_s", kind: "host", better: "higher", bound: 0.10, driver: 0.25}
	share := metricDef{name: "op_ok_share", kind: "sim", better: "higher", abs: 0.002, driver: 0.03}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		d    metricDef
		vals [2][]float64
		want string
	}{
		{host, [2][]float64{steady, steady}, ""},
		{host, [2][]float64{steady, {100, 101, 99, 100, 115}}, " STRAYS"},
		{host, [2][]float64{steady, {88, 89, 87, 88, 90}}, " SETS-DISAGREE"},
		{share, [2][]float64{{0.92, 0.92}, {0.92, 0.9215}}, ""},
		{share, [2][]float64{{0.92, 0.92, 0.92}, {0.92, 0.92, 0.925}}, " STRAYS"},
	} {
		if _, _, mark := readOneSeed(c.d, c.vals); mark != c.want {
			t.Errorf("readOneSeed(%s, %v) flags %q, want %q", c.d.name, c.vals, mark, c.want)
		}
	}
	wide := []float64{60, 70, 80, 100, 120, 130, 140, 100, 90, 110}
	slow := make([]float64, len(steady))
	for i, v := range steady {
		slow[i] = 0.7 * v
	}
	for _, c := range []struct {
		d    metricDef
		vals [2][]float64
		want string
	}{
		{host, [2][]float64{steady, steady}, ""},
		{host, [2][]float64{wide, wide}, " SPREAD"},
		{host, [2][]float64{steady, slow}, " DRIFT"},
		{host, [2][]float64{slow, steady}, ""}, // better, not worse
		{share, [2][]float64{{0.92, 0.93}, {0.92, 0.94}}, " SEED8-DIFFERS"},
	} {
		if _, _, mark := readSeeds(c.d, c.vals, 7); mark != c.want {
			t.Errorf("readSeeds(%s, %v) flags %q, want %q", c.d.name, c.vals, mark, c.want)
		}
	}
}

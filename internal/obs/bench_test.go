package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchWith(counter string, v int64) *BenchFile {
	return &BenchFile{
		Schema: BenchSchema,
		Experiments: []BenchExperiment{
			{ID: "x", Metrics: &Snapshot{Counters: map[string]int64{counter: v}}},
		},
	}
}

func TestWithinTolEdges(t *testing.T) {
	cases := []struct {
		name          string
		old, new, tol float64
		want          bool
	}{
		{"exact equal, zero tol", 100, 100, 0, true},
		{"any drift, zero tol", 100, 100.0001, 0, false},
		{"just inside", 100, 110, 0.1, true}, // |10| == 0.1*100 exactly
		{"just outside", 100, 111, 0.1, false},
		{"inside below", 100, 91, 0.1, true},
		{"outside below", 100, 89, 0.1, false},
		{"old zero must stay zero", 0, 1, 10, false},
		{"old zero stays zero", 0, 0, 0, true},
		{"negative old scales by magnitude", -100, -109, 0.1, true},
	}
	for _, c := range cases {
		if got := withinTol(c.old, c.new, c.tol); got != c.want {
			t.Errorf("%s: withinTol(%v, %v, %v) = %v, want %v", c.name, c.old, c.new, c.tol, got, c.want)
		}
	}
}

func TestCompareToleranceEdges(t *testing.T) {
	old := benchWith("m", 100)
	for _, c := range []struct {
		name  string
		new   int64
		tol   float64
		wantN int
	}{
		{"exact equal at zero tol", 100, 0, 0},
		{"drift at zero tol", 101, 0, 1},
		{"just inside", 110, 0.1, 0},
		{"just outside", 111, 0.1, 1},
	} {
		probs := Compare(old, benchWith("m", c.new), c.tol)
		if len(probs) != c.wantN {
			t.Errorf("%s: got %d problems (%v), want %d", c.name, len(probs), probs, c.wantN)
		}
	}
}

func TestCompareMissingAndExtra(t *testing.T) {
	old := benchWith("m", 1)

	// A metric missing from the new file is a regression; the unrelated
	// "other" counter is an addition and does not count.
	probs := Compare(old, benchWith("other", 1), 0)
	if len(probs) != 1 || !strings.Contains(probs[0].Detail, "missing") {
		t.Fatalf("missing metric: got %v, want one missing-metric problem", probs)
	}

	// A whole experiment missing from the new file is a regression.
	probs = Compare(old, &BenchFile{Schema: BenchSchema}, 0)
	if len(probs) != 1 || !strings.Contains(probs[0].Detail, "missing") {
		t.Fatalf("missing experiment: got %v", probs)
	}

	// Extra experiments and metrics in the new file are additions, not
	// regressions.
	bigger := benchWith("m", 1)
	bigger.Experiments[0].Metrics.Counters["extra"] = 7
	bigger.Experiments = append(bigger.Experiments,
		BenchExperiment{ID: "y", Metrics: &Snapshot{Counters: map[string]int64{"n": 1}}})
	if probs := Compare(old, bigger, 0); len(probs) != 0 {
		t.Fatalf("additions flagged as regressions: %v", probs)
	}
}

func TestLoadBenchFileSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchFile(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}

	good := filepath.Join(dir, "good.json")
	f := benchWith("m", 1)
	b, err := f.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBenchFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if probs := Compare(f, loaded, 0); len(probs) != 0 {
		t.Fatalf("round-trip drift: %v", probs)
	}
}

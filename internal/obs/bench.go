package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// BenchSchema identifies the bench-file format; benchdiff refuses to
// compare files with mismatched schemas.
const BenchSchema = "feudalism-bench/v1"

// Timing is the non-deterministic half of a bench entry: host wall time
// and allocation counts. It is recorded only when the bench is invoked
// with -timing, so the default output stays byte-reproducible.
type Timing struct {
	WallNS     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// BenchExperiment is one experiment's bench record: the deterministic
// protocol-metric snapshot, plus optional timing.
type BenchExperiment struct {
	ID      string    `json:"id"`
	Metrics *Snapshot `json:"metrics"`
	Timing  *Timing   `json:"timing,omitempty"`
}

// BenchFile is the machine-readable artifact `feudalism bench -json`
// emits and CI diffs (BENCH_baseline.json vs a fresh run).
type BenchFile struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Trials int    `json:"trials"`
	Scale  string `json:"scale"`
	// Experiments are sorted by ID.
	Experiments []BenchExperiment `json:"experiments"`
}

// Sort orders the experiments by ID (the canonical file order).
func (f *BenchFile) Sort() {
	sort.Slice(f.Experiments, func(i, j int) bool { return f.Experiments[i].ID < f.Experiments[j].ID })
}

// EncodeJSON renders the file as indented JSON with a trailing newline.
// With timing disabled the bytes are a pure function of (code, seed,
// trials, scale).
func (f *BenchFile) EncodeJSON() ([]byte, error) {
	f.Sort()
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// LoadBenchFile reads and validates a bench file from disk.
func LoadBenchFile(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, BenchSchema)
	}
	return &f, nil
}

// Problem is one regression found by Compare.
type Problem struct {
	Experiment string
	Metric     string
	Old, New   float64
	Detail     string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s: %s: %s (old=%v new=%v)", p.Experiment, p.Metric, p.Detail, p.Old, p.New)
}

// withinTol reports whether new is within relative tolerance tol of old.
// With old == 0 there is nothing to scale the tolerance by, so the values
// must match exactly.
func withinTol(old, new, tol float64) bool {
	if old == new {
		return true
	}
	return math.Abs(new-old) <= tol*math.Abs(old)
}

// Compare diffs new against old and returns every regression. tol is the
// allowed relative drift for every deterministic value (counters, gauges,
// histogram fields): |new-old| ≤ tol·|old|, and zero means exact equality,
// the right setting for same-seed runs. Experiments or metrics present
// only in new are additions, not regressions; metrics missing from new are
// regressions (a measurement silently disappeared). Timing sections are
// not compared here: the one timing gate is benchdiff -history.
func Compare(old, new *BenchFile, tol float64) []Problem {
	var probs []Problem
	newByID := map[string]BenchExperiment{}
	for _, e := range new.Experiments {
		newByID[e.ID] = e
	}
	olds := append([]BenchExperiment(nil), old.Experiments...)
	sort.Slice(olds, func(i, j int) bool { return olds[i].ID < olds[j].ID })
	for _, oe := range olds {
		ne, ok := newByID[oe.ID]
		if !ok {
			probs = append(probs, Problem{Experiment: oe.ID, Detail: "experiment missing from new file"})
			continue
		}
		probs = append(probs, compareSnapshots(oe.ID, oe.Metrics, ne.Metrics, tol)...)
	}
	return probs
}

func compareSnapshots(id string, old, new *Snapshot, tol float64) []Problem {
	var probs []Problem
	if old == nil {
		return nil
	}
	if new == nil {
		return []Problem{{Experiment: id, Detail: "metrics missing from new file"}}
	}
	check := func(metric string, ov, nv float64, present bool) {
		if !present {
			probs = append(probs, Problem{Experiment: id, Metric: metric, Old: ov, Detail: "metric missing from new file"})
			return
		}
		if !withinTol(ov, nv, tol) {
			probs = append(probs, Problem{
				Experiment: id, Metric: metric, Old: ov, New: nv,
				Detail: fmt.Sprintf("drifted beyond tolerance %g", tol),
			})
		}
	}
	for _, name := range sortedKeys(old.Counters) {
		nv, ok := new.Counters[name]
		check("counter:"+name, float64(old.Counters[name]), float64(nv), ok)
	}
	for _, name := range sortedKeys(old.Gauges) {
		nv, ok := new.Gauges[name]
		check("gauge:"+name, old.Gauges[name], nv, ok)
	}
	for _, name := range sortedKeys(old.Histograms) {
		oh := old.Histograms[name]
		nh, ok := new.Histograms[name]
		check("histogram:"+name+":count", float64(oh.Count), float64(nh.Count), ok)
		if !ok {
			continue
		}
		fields := [][3]any{
			{"sum", oh.Sum, nh.Sum}, {"mean", oh.Mean, nh.Mean},
			{"min", oh.Min, nh.Min}, {"max", oh.Max, nh.Max},
			{"p50", oh.P50, nh.P50}, {"p90", oh.P90, nh.P90}, {"p99", oh.P99, nh.P99},
		}
		for _, f := range fields {
			check("histogram:"+name+":"+f[0].(string), f[1].(float64), f[2].(float64), true)
		}
	}
	return probs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //determinism:ok sorted straight after
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

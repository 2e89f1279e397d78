package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// exp builds a bench record that delivered msgs messages in wall time; a
// zero wall leaves the record without a timing section.
func exp(id string, msgs int64, wall time.Duration) obs.BenchExperiment {
	e := obs.BenchExperiment{ID: id, Metrics: &obs.Snapshot{Counters: map[string]int64{"net.msg.delivered": msgs}}}
	if wall > 0 {
		e.Timing = &obs.Timing{WallNS: int64(wall)}
	}
	return e
}

func file(exps ...obs.BenchExperiment) *obs.BenchFile {
	return &obs.BenchFile{Schema: obs.BenchSchema, Experiments: exps}
}

func TestThroughput(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    obs.BenchExperiment
		want float64
		ok   bool
	}{
		{"delivered over wall seconds", exp("x", 3000, 2*time.Second), 1500, true},
		{"no timing", exp("x", 3000, 0), 0, false},
		{"zero wall", obs.BenchExperiment{ID: "x", Metrics: &obs.Snapshot{Counters: map[string]int64{"net.msg.delivered": 1}}, Timing: &obs.Timing{}}, 0, false},
		{"no metrics", obs.BenchExperiment{ID: "x", Timing: &obs.Timing{WallNS: 1e9}}, 0, false},
		{"no traffic counter", obs.BenchExperiment{ID: "x", Metrics: &obs.Snapshot{}, Timing: &obs.Timing{WallNS: 1e9}}, 0, false},
		{"no traffic", exp("x", 0, time.Second), 0, false},
	} {
		got, ok := throughput(tc.e)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: throughput = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestCompareThroughput(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new *obs.BenchFile
		// problems lists a substring of each expected problem's detail, in
		// order; printed is a substring the history table must show.
		problems []string
		printed  string
	}{
		{
			name: "a faster run never fails",
			old:  file(exp("a", 1000, time.Second)),
			new:  file(exp("a", 1000, 100*time.Millisecond)),
		},
		{
			name: "a slowdown inside the tolerance passes",
			old:  file(exp("a", 1000, time.Second)),
			new:  file(exp("a", 1000, 1200*time.Millisecond)),
		},
		{
			name:     "a slowdown beyond the tolerance fails",
			old:      file(exp("a", 1000, time.Second)),
			new:      file(exp("a", 1000, 2*time.Second)),
			problems: []string{"msgs/sec dropped beyond -25%"},
		},
		{
			name:    "an old entry under minWall is printed but not gated",
			old:     file(exp("a", 1000, time.Second), exp("fast", 1000, 50*time.Millisecond)),
			new:     file(exp("a", 1000, time.Second), exp("fast", 1000, time.Second)),
			printed: "[under 100ms, not gated]",
		},
		{
			name:     "a new file without timing is a regression",
			old:      file(exp("a", 1000, time.Second), exp("b", 1000, time.Second)),
			new:      file(exp("a", 1000, time.Second), exp("b", 1000, 0)),
			problems: []string{"new file has no timing"},
		},
		{
			name:     "no pair compared is a regression",
			old:      file(exp("fast", 1000, 50*time.Millisecond), exp("untimed", 1000, 0)),
			new:      file(exp("fast", 1000, 50*time.Millisecond), exp("untimed", 1000, time.Second)),
			problems: []string{"compared nothing"},
		},
		{
			name: "an experiment missing from the new file is left to Compare",
			old:  file(exp("a", 1000, time.Second), exp("gone", 1000, time.Second)),
			new:  file(exp("a", 1000, time.Second)),
		},
	} {
		var out strings.Builder
		probs := compareThroughput(&out, tc.old, tc.new)
		if len(probs) != len(tc.problems) {
			t.Errorf("%s: %d problems %v, want %d", tc.name, len(probs), probs, len(tc.problems))
			continue
		}
		for i, want := range tc.problems {
			if !strings.Contains(probs[i].Detail, want) {
				t.Errorf("%s: problem %d = %q, want it to mention %q", tc.name, i, probs[i].Detail, want)
			}
		}
		if !strings.Contains(out.String(), tc.printed) {
			t.Errorf("%s: history table lacks %q:\n%s", tc.name, tc.printed, out.String())
		}
	}
}

// TestExitCodes pins benchdiff's contract with scripts/ci.sh: 0 when
// nothing regressed, 1 on a regression, 2 on a usage error or a file that
// is not a bench file.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *obs.BenchFile) string {
		t.Helper()
		b, err := f.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", file(exp("a", 1000, 0), exp("b", 2000, 0)))
	same := write("same.json", file(exp("a", 1000, 0), exp("b", 2000, 0)))
	drifted := write("drifted.json", file(exp("a", 1001, 0), exp("b", 2000, 0)))
	missing := write("missing.json", file(exp("a", 1000, 0)))
	timed := write("timed.json", file(exp("a", 1000, time.Second), exp("b", 2000, time.Second)))
	wrongSchema := write("schema.json", &obs.BenchFile{Schema: "feudalism-bench/v0"})
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"identical files", []string{base, same}, 0},
		{"drifted counter", []string{base, drifted}, 1},
		{"missing experiment", []string{base, missing}, 1},
		{"history against a file with no timing", []string{"-history", timed, base}, 1},
		{"wrong argument count", []string{base}, 2},
		{"bad flag", []string{"-nope", base, same}, 2},
		{"schema mismatch", []string{base, wrongSchema}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if tc.code == 0 && !strings.Contains(stdout.String(), "benchdiff: OK") {
				t.Errorf("no OK line on stdout:\n%s", stdout.String())
			}
			if tc.code != 0 && stderr.Len() == 0 {
				t.Error("nothing on stderr")
			}
		})
	}
}

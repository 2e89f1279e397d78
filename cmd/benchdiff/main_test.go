package main

import (
	"io"
	"os"
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

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-out
}

func TestCompareThroughput(t *testing.T) {
	const tol, minWall = 0.25, 100 * time.Millisecond
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
			name:    "an old entry under -min-wall is printed but not gated",
			old:     file(exp("a", 1000, time.Second), exp("fast", 1000, 50*time.Millisecond)),
			new:     file(exp("a", 1000, time.Second), exp("fast", 1000, time.Second)),
			printed: "[under -min-wall, not gated]",
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
		var probs []obs.Problem
		out := captureStdout(t, func() { probs = compareThroughput(tc.old, tc.new, tol, minWall) })
		if len(probs) != len(tc.problems) {
			t.Errorf("%s: %d problems %v, want %d", tc.name, len(probs), probs, len(tc.problems))
			continue
		}
		for i, want := range tc.problems {
			if !strings.Contains(probs[i].Detail, want) {
				t.Errorf("%s: problem %d = %q, want it to mention %q", tc.name, i, probs[i].Detail, want)
			}
		}
		if !strings.Contains(out, tc.printed) {
			t.Errorf("%s: history table lacks %q:\n%s", tc.name, tc.printed, out)
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of diffing against them")

// TestTableGoldens pins the byte-exact stdout of the commands that print a
// fixed artifact to testdata/<name>.golden: the three paper tables and the
// Zooko triangle (no seed, no simulation), and the default-seed runs of
// `names` and `dedup -stats`. Any diff is a real change to a published
// artifact — regenerate deliberately with `go test ./cmd/feudalism -update`.
func TestTableGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"table1", []string{"table1"}},
		{"table2", []string{"table2"}},
		{"table3", []string{"table3"}},
		{"zooko", []string{"zooko"}},
		{"names", []string{"names"}},
		{"dedup_stats", []string{"dedup", "-stats"}},
		{"dedup_stats_cdc", []string{"dedup", "-stats", "-cdc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
				t.Fatalf("%v: exit %d, %d bytes out; stderr: %s", tc.args, code, stdout.Len(), stderr.String())
			}
			out := stdout.String()
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if out != string(want) {
				t.Errorf("%v output drifted from %s.\ngot:\n%s\nwant:\n%s\n(run `go test ./cmd/feudalism -update` if the change is intended)",
					tc.args, golden, out, want)
			}
		})
	}
}

// TestExitCodes: every usage error exits 2 with a message on stderr and
// nothing on stdout, before any experiment runs.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no command", nil},
		{"unknown command", []string{"bogus"}},
		{"bad flag", []string{"table1", "-nope"}},
		{"no experiment id", []string{"experiment"}},
		{"unknown experiment", []string{"experiment", "x99"}},
		{"bad workload", []string{"experiment", "x18", "-workload", "bogus"}},
		{"bad workload with trials", []string{"experiment", "x18", "-trials", "3", "-workload", "bogus"}},
		{"bad scale", []string{"bench", "-scale", "huge"}},
		{"tiny with trials", []string{"bench", "-scale", "tiny", "-trials", "3"}},
		{"invalid name", []string{"names", "-name", "NOT A NAME"}},
		{"unknown subsystem", []string{"scale", "-n", "100", "-subsystems", "simnet,bogus"}},
		{"single heap with workers", []string{"scale", "-n", "100", "-shards", "0", "-workers", "1,2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("%v: exit %d, want 2", tc.args, code)
			}
			if stdout.Len() != 0 || stderr.Len() == 0 {
				t.Errorf("%v: %d bytes on stdout, %d on stderr; want a message on stderr only", tc.args, stdout.Len(), stderr.Len())
			}
		})
	}
}

// TestScaleCmd: `scale` prints one line per (subsystem, workers) cell and
// one speedup line per subsystem, and writes the huge-scale artifact. Two
// worker counts make the run the determinism check it exists for.
func TestScaleCmd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scale.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"scale", "-n", "200", "-workers", "1,2", "-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	var cells, identical int
	for _, l := range lines {
		switch {
		case strings.Contains(l, " workers="):
			cells++
		case strings.Contains(l, "byte-identical across worker counts"):
			identical++
		}
	}
	if cells != 6 || identical != 3 || len(lines) != 9 {
		t.Errorf("%d cell lines, %d byte-identical lines, %d in all; want 6, 3, 9:\n%s", cells, identical, len(lines), stdout.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"scale": "huge"`)) {
		t.Errorf("artifact is not the huge-scale bench file:\n%.200s", b)
	}
}

// TestX18WorkloadUnderTrials: -workload picks X18's schedule for the
// multi-seed aggregate as well as the single-seed table, and the title
// says which; the default stays the flash crowd.
func TestX18WorkloadUnderTrials(t *testing.T) {
	out := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"experiment", "x18", "-trials", "2"}, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d; stderr: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	flash, zipf := out(), out("-workload", "zipf")
	if !strings.HasPrefix(flash, "X18: flash-crowd workload") {
		t.Errorf("default title changed:\n%s", flash)
	}
	if !strings.HasPrefix(zipf, "X18: zipf workload") {
		t.Errorf("zipf title does not name its workload:\n%s", zipf)
	}
	if body := func(s string) string { return s[strings.Index(s, "\n"):] }; body(flash) == body(zipf) {
		t.Error("-workload zipf under -trials printed the flash aggregate")
	}
	if f := out("-workload", "flash"); f != flash {
		t.Error("-workload flash differs from the default")
	}
}

// TestRenderTableUnknown: non-table commands are not rendered here.
func TestRenderTableUnknown(t *testing.T) {
	if _, ok := renderTable("zooko"); ok {
		t.Error("renderTable accepted a non-table command")
	}
}

// TestStartProfiles: both profile files are written when asked for, nothing
// is when not, and an unwritable path is an error rather than a silent skip.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(p), err)
		}
	}

	stop, err = startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 2 {
		t.Errorf("profiles off: %d files in the directory, want the 2 from before", len(left))
	}

	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Error("an unwritable -cpuprofile path was accepted")
	}
}

// TestBenchProfiles: `bench -cpuprofile -memprofile` writes both profiles
// beside a bench file that is byte for byte the one an unprofiled run
// writes.
func TestBenchProfiles(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	bench := func(args ...string) {
		t.Helper()
		var stderr bytes.Buffer
		args = append([]string{"bench", "-scale", "tiny", "-seed", "9"}, args...)
		if code := run(args, io.Discard, &stderr); code != 0 {
			t.Fatalf("%v: exit %d; stderr: %s", args, code, stderr.String())
		}
	}
	bench("-json", path("plain.json"))
	bench("-json", path("profiled.json"), "-cpuprofile", path("cpu.prof"), "-memprofile", path("mem.prof"))
	for _, name := range []string{"cpu.prof", "mem.prof"} {
		if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", name, err)
		}
	}
	plain, err := os.ReadFile(path("plain.json"))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := os.ReadFile(path("profiled.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 || !bytes.Equal(plain, profiled) {
		t.Errorf("profiling changed the bench file: %d bytes without, %d with", len(plain), len(profiled))
	}
}

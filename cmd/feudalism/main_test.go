package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of diffing against them")

// TestTableGoldens pins the byte-exact output of the three paper-table
// commands to testdata/*.golden. The tables are deterministic (no seed, no
// simulation), so any diff is a real change to a published artifact —
// regenerate deliberately with `go test ./cmd/feudalism -update`.
func TestTableGoldens(t *testing.T) {
	for _, cmd := range []string{"table1", "table2", "table3"} {
		cmd := cmd
		t.Run(cmd, func(t *testing.T) {
			out, ok := renderTable(cmd)
			if !ok || out == "" {
				t.Fatalf("renderTable(%q) produced nothing", cmd)
			}
			golden := filepath.Join("testdata", cmd+".golden")
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
				t.Errorf("%s output drifted from %s.\ngot:\n%s\nwant:\n%s\n(run `go test ./cmd/feudalism -update` if the change is intended)",
					cmd, golden, out, want)
			}
		})
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
	common := []string{"-scale", "tiny", "-seed", "9"}
	runBenchCmd(append(common, "-json", path("plain.json")))
	runBenchCmd(append(common, "-json", path("profiled.json"), "-cpuprofile", path("cpu.prof"), "-memprofile", path("mem.prof")))
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

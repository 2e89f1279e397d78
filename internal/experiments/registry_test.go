package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestRegistryIDsUniqueAndComplete: ids are unique, every entry has a
// description and a runner, and three known ids resolve through Find.
func TestRegistryIDsUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Desc == "" {
			t.Errorf("entry %+v missing id or description", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s: Run must be set", e.ID)
		}
	}
	for _, id := range []string{"naming-throughput", "x14", "sensitivity"} {
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%q) = not found", id)
		}
	}
	if _, ok := Find("no-such-experiment"); ok {
		t.Error("Find of unknown id succeeded")
	}
}

// TestRegistryTinyRuns: every registered experiment runs at tiny scale,
// produces a rendered table with at least a header, a separator, and one
// data row, and renders exactly its seed-7 block of
// testdata/registry_tiny.golden. Regenerate that file with
// `go test ./internal/experiments -run 'TestRegistryTinyRuns$' -update`
// after an intentional change to a tiny table.
func TestRegistryTinyRuns(t *testing.T) {
	const golden = "testdata/registry_tiny.golden"
	var want map[string]string
	if !*updateGolden {
		b, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		want = splitTinyGolden(string(b))
	}
	var all strings.Builder
	ran := 0
	for _, d := range descriptors() {
		t.Run(d.id, func(t *testing.T) {
			out := d.run(7, true).String()
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
			if len(lines) < 3 {
				t.Fatalf("tiny output too short (%d lines):\n%s", len(lines), out)
			}
			if strings.TrimSpace(out) == "" {
				t.Fatal("tiny output empty")
			}
			fmt.Fprintf(&all, "== %s ==\n%s", d.id, out)
			ran++
			if !*updateGolden && out != want[d.id] {
				t.Errorf("tiny table drifted from %s; if intentional, rerun with -update\ngot:\n%s\nwant:\n%s", golden, out, want[d.id])
			}
		})
	}
	if *updateGolden {
		if ran != len(descriptors()) {
			t.Fatalf("-update rewrites the whole golden: run every entry (%d of %d ran)", ran, len(descriptors()))
		}
		if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// splitTinyGolden parses registry_tiny.golden: each entry's table follows
// a "== <id> ==" line.
func splitTinyGolden(s string) map[string]string {
	blocks := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			id = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			continue
		}
		blocks[id] += line
	}
	return blocks
}

// TestRegistryTinyDeterministic: the same seed renders byte-identical
// output for every entry — the reproducibility contract every experiment
// inherits from simnet.
func TestRegistryTinyDeterministic(t *testing.T) {
	for _, d := range descriptors() {
		t.Run(d.id, func(t *testing.T) {
			if a, b := d.run(11, true).String(), d.run(11, true).String(); a != b {
				t.Errorf("same seed rendered different tables:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// descriptorByID returns the descriptor with the given id.
func descriptorByID(id string) descriptor {
	for _, d := range descriptors() {
		if d.id == id {
			return d
		}
	}
	panic("experiments: no experiment " + id)
}

package experiments

import "testing"

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

// descriptorByID returns the descriptor with the given id.
func descriptorByID(id string) descriptor {
	for _, d := range descriptors() {
		if d.id == id {
			return d
		}
	}
	panic("experiments: no experiment " + id)
}

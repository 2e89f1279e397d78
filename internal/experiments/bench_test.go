package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// benchGoldens is the known-answer table behind TestBenchGoldens: one row
// per matrix experiment, naming the seed its snapshot was recorded at and
// whether it runs at the tiny world sizes (worker invariance is about merge
// ordering, not population size, so only X14 — the experiment touching the
// most subsystems — pays for full scale). The answers themselves are
// testdata/<id>_bench_golden.json.
var benchGoldens = []struct {
	id   string
	seed int64
	tiny bool
}{
	{"x14", 4242, false},
	{"x15", 1515, true},
	{"x16", 1616, true}, // resil.* retry/hedge/breaker counters: every adaptive decision the layer made
	{"x17", 1717, true}, // storage.tier.* hits, storage.dedup.ratio, storage.gc.reclaimed_bytes: every tiering decision
	{"x18", 1818, true}, // workload.* request accounting; any drift in the schedule's draws moves it
	{"x19", 1919, true}, // replic.* counters, the origin-byte-share gauge, the adaptive arms' resil.*
	{"x20", 2020, true}, // overload.* admission/shed/CoDel counters, net.queue.* uplink gauges, resil.shed.count
}

// benchSnapshot runs one matrix experiment as a three-trial bench entry on
// `workers` trial runners and returns the snapshot JSON.
func benchSnapshot(t *testing.T, d matrixExp, seed int64, tiny bool, workers int) []byte {
	t.Helper()
	e := Experiment{ID: d.id, Multi: func(seeds []int64, workers int) fmt.Stringer {
		return d.runMulti(seeds, workers, tiny)
	}}
	entry := runBenchEntry(e, BenchOptions{Seed: seed, Trials: 3, Workers: workers, Scale: "full"}.withDefaults())
	var buf bytes.Buffer
	if err := entry.Metrics.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBenchGoldens pins each matrix experiment's fixed-seed observability
// snapshot byte for byte: identical across trial worker counts and against
// the checked-in golden file. Regenerate every golden with
// `go test ./internal/experiments -run TestBenchGoldens -update` after an
// intentional behaviour change (add `/x17` to the pattern for just one).
func TestBenchGoldens(t *testing.T) {
	if len(benchGoldens) != len(matrixExps()) {
		t.Errorf("%d golden rows for %d matrix experiments; every descriptor needs a row", len(benchGoldens), len(matrixExps()))
	}
	for _, g := range benchGoldens {
		t.Run(g.id, func(t *testing.T) {
			d := matrixExpByID(g.id)
			serial := benchSnapshot(t, d, g.seed, g.tiny, 1)
			if parallel := benchSnapshot(t, d, g.seed, g.tiny, 4); !bytes.Equal(serial, parallel) {
				t.Fatal("snapshot differs between 1 and 4 trial workers")
			}
			golden := filepath.Join("testdata", g.id+"_bench_golden.json")
			if *updateGolden {
				if err := os.WriteFile(golden, serial, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(serial, want) {
				t.Fatalf("snapshot drifted from %s; if intentional, rerun with -update\ngot:\n%s", golden, serial)
			}
		})
	}
}

// TestShardedLayoutsAgree runs every engine-parametric arm of the
// flash-crowd batteries on deterministic links, once on the legacy
// single-heap engine and once on the sharded engine at full worker
// parallelism, and requires identical results: the score, every request's
// fate, and the replica timeline. With identical event streams every
// demand counter, push decision, admission and lane-stamped send must
// match regardless of how many worker goroutines advanced the simulation.
// (Deterministic links have no bandwidth model, so the overload layer
// never saturates here — what X20's arms pin is the deferred-reply
// dispatch and admission bookkeeping.) `make race` runs this under the
// race detector: it is the only place harness callbacks cross goroutines.
func TestShardedLayoutsAgree(t *testing.T) {
	sp := flashSpecFor(true)
	reqs, rs := x18Stream(42, sp, "flash")
	layouts := []simnet.NetworkConfig{
		{Shards: 0, Workers: 1},
		{Shards: 4, Workers: runtime.GOMAXPROCS(0)},
	}
	for _, battery := range []struct {
		id   string
		arms []flashArm
	}{
		{"x19", x19Arms(sp)},
		{"x20", x20Arms(sp)},
	} {
		t.Run(battery.id, func(t *testing.T) {
			checked := 0
			for _, arm := range battery.arms {
				if !arm.engineParametric() {
					continue
				}
				checked++
				arm.det = true
				arm.engine = layouts[0]
				legacy := runFlashArm(42, sp, arm, reqs, rs)
				arm.engine = layouts[1]
				sharded := runFlashArm(42, sp, arm, reqs, rs)
				if legacy.flashScore != sharded.flashScore {
					t.Errorf("%s: scores diverged across layouts:\nlegacy:  %+v\nsharded: %+v",
						arm.name, legacy.flashScore, sharded.flashScore)
				}
				if !slices.Equal(legacy.outcomes, sharded.outcomes) {
					t.Errorf("%s: per-request outcomes diverged across layouts", arm.name)
				}
				if !slices.Equal(legacy.timeline, sharded.timeline) {
					t.Errorf("%s: replica timelines diverged across layouts:\nlegacy:  %v\nsharded: %v",
						arm.name, legacy.timeline, sharded.timeline)
				}
			}
			if checked == 0 {
				t.Fatal("battery declares no engine-parametric arm")
			}
		})
	}
}

// TestRunBenchTinyReproducible checks that a whole-registry bench file is
// byte-identical across runs when timing is off. The second run asks for
// three trials, which the tiny scale does not run, so its file must also
// record the one trial it ran.
func TestRunBenchTinyReproducible(t *testing.T) {
	opts := BenchOptions{Seed: 42, Scale: "tiny"}
	b1, err := RunBench(opts).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	opts.Trials = 3
	b2, err := RunBench(opts).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("tiny bench output differs between identical runs")
	}
	if len(b1) == 0 || b1[len(b1)-1] != '\n' {
		t.Fatal("bench output must end with a newline")
	}
}

// TestBaselineCoversRegistry requires every registered experiment to have
// an entry in the committed BENCH_baseline.json. benchdiff treats
// experiments present only in the fresh run as additions, not regressions,
// so a baseline predating an experiment would silently leave it ungated.
func TestBaselineCoversRegistry(t *testing.T) {
	base, err := obs.LoadBenchFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatalf("baseline not loadable: %v", err)
	}
	have := map[string]bool{}
	for _, e := range base.Experiments {
		have[e.ID] = true
	}
	for _, e := range Registry() {
		if !have[e.ID] {
			t.Errorf("BENCH_baseline.json has no %s entry; regenerate the baseline", e.ID)
		}
	}
}

// TestBaselinePerturbationFailsGate proves the CI gate actually bites: a
// copy of the committed BENCH_baseline.json with one counter perturbed
// beyond tolerance must produce a regression, while the untouched pair
// compares clean.
func TestBaselinePerturbationFailsGate(t *testing.T) {
	const path = "../../BENCH_baseline.json"
	clean, err := obs.LoadBenchFile(path)
	if err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	same, err := obs.LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if probs := obs.Compare(clean, same, obs.Tolerances{}); len(probs) != 0 {
		t.Fatalf("identical baselines compare unclean: %v", probs)
	}

	perturbed, err := obs.LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bumped := false
	for _, e := range perturbed.Experiments {
		if e.Metrics == nil {
			continue
		}
		for name, v := range e.Metrics.Counters {
			e.Metrics.Counters[name] = v*2 + 10 // far beyond any sane tolerance
			bumped = true
			break
		}
		if bumped {
			break
		}
	}
	if !bumped {
		t.Fatal("baseline has no counters to perturb")
	}
	if probs := obs.Compare(clean, perturbed, obs.Tolerances{Metric: 0.25}); len(probs) == 0 {
		t.Fatal("perturbed baseline passed the gate")
	}
}

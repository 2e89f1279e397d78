package experiments

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/workload"
)

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
		{"x18", x18Arms()},
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
				legacy := runDetFlashArm(Env{Seed: 42, Layout: layouts[0]}, sp, arm, reqs, rs)
				sharded := runDetFlashArm(Env{Seed: 42, Layout: layouts[1]}, sp, arm, reqs, rs)
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
		t.Fatalf("baseline not loadable: %v", err)
	}
	same, err := obs.LoadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if probs := obs.Compare(clean, same, 0); len(probs) != 0 {
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
	if probs := obs.Compare(clean, perturbed, 0.25); len(probs) == 0 {
		t.Fatal("perturbed baseline passed the gate")
	}
}

// runDetFlashArm runs the arm as runFlashArm does, but with every access
// link replaced by a fixed-latency profile before any traffic — no
// jitter, no loss, no bandwidth queueing — the regime where the legacy and
// sharded engines are event-for-event identical (simnet's
// TestShardedMatchesLegacyWhenDeterministic).
func runDetFlashArm(env Env, sp flashSpec, arm flashArm, reqs []workload.Request, rs *workload.RegionSet) flashResult {
	w := buildFlashWorld(env, sp, arm, rs)
	for _, n := range w.nw.Nodes() {
		n.SetProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond})
	}
	return w.replay(reqs)
}

// engineParametric reports whether the arm's outcome is independent of the
// engine layout under det links. Crashes are outside that contract (the
// two engines drop a crashed node's in-flight messages at different
// points), so arms with a fault scenario are not.
func (a flashArm) engineParametric() bool { return a.scenario == nil }

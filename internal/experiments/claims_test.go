package experiments

import "testing"

// The headline-claim tests: one acceptance gate per matrix experiment,
// each pinning the result the experiment exists to show.

// TestX16ResilientBeatsNaive pins the experiment's headline claim: with
// the same seed, worlds, and fault plans, the adaptive transport's
// mid-fault availability is strictly higher than the naive fixed-timeout
// transport's on the lossy-edge and rolling-churn scenarios, and never
// worse on any other scenario by more than a small tolerance.
func TestX16ResilientBeatsNaive(t *testing.T) {
	m := resilienceMatrix(Env{Seed: 4242, Tiny: true})
	scs := resilScenarios()
	col := func(name, measure string) int {
		for c, cn := range m.Cols {
			if cn == name+" "+measure {
				return c
			}
		}
		t.Fatalf("column %s %s not found", name, measure)
		return -1
	}
	row := func(name string) int {
		for r, rn := range m.Rows {
			if rn == name {
				return r
			}
		}
		t.Fatalf("row %s not found", name)
		return -1
	}
	subsystems := []string{"dht", "storage", "groupcomm", "webapp"}
	// Per cell, resil may trail naive by at most two of the tiny run's
	// eight probes: the layer's extra traffic shifts the shared loss/latency
	// draw stream, so individual probes land differently, but adaptation
	// must never cost real availability.
	for _, sub := range subsystems {
		naive, res := row(sub+" naive"), row(sub+" resil")
		for _, sc := range scs {
			c := col(sc.Name, "avail%")
			nv, rv := m.Vals[naive][c], m.Vals[res][c]
			if rv < nv-25 {
				t.Errorf("%s %s: resil availability %.1f%% < naive %.1f%%", sub, sc.Name, rv, nv)
			}
		}
	}
	// The headline: summed over subsystems, the resilient transport is
	// strictly more available during lossy-edge and rolling-churn faults.
	for _, scName := range []string{"lossy-edge", "rolling-churn"} {
		c := col(scName, "avail%")
		var nv, rv float64
		for _, sub := range subsystems {
			nv += m.Vals[row(sub+" naive")][c]
			rv += m.Vals[row(sub+" resil")][c]
		}
		if !(rv > nv) {
			t.Errorf("%s: aggregate resil availability %.1f does not beat naive %.1f", scName, rv, nv)
		}
	}
}

// TestX17CDCBeatsFixed pins the experiment's headline claim: on the
// edited-document population — where insertions shift chunk alignment —
// content-defined chunking deduplicates more than 1.5× better than
// fixed-size chunking, while on the alignment-preserving shared-prefix
// population both modes dedup substantially (ratio > 1.5 absolute).
func TestX17CDCBeatsFixed(t *testing.T) {
	m := dedupMatrix(Env{Seed: 4217, Tiny: true})
	row := func(name string) int {
		for r, rn := range m.Rows {
			if rn == name {
				return r
			}
		}
		t.Fatalf("row %s not found", name)
		return -1
	}
	fixed := m.Vals[row("edited-doc fixed")][0]
	cdc := m.Vals[row("edited-doc cdc")][0]
	if !(cdc > 1.5*fixed) {
		t.Errorf("edited-doc: CDC dedup ratio %.2f not >1.5× fixed %.2f", cdc, fixed)
	}
	for _, name := range []string{"shared-prefix fixed", "shared-prefix cdc"} {
		if v := m.Vals[row(name)][0]; v <= 1.5 {
			t.Errorf("%s: dedup ratio %.2f, want > 1.5 (aligned prefixes should dedup in both modes)", name, v)
		}
	}
	// Tiering and GC must actually have engaged: every row saw memory-tier
	// hits, and the release+filler phase reclaimed disk in every world.
	for r, name := range m.Rows {
		if m.Vals[r][1] <= 0 {
			t.Errorf("%s: no memory-tier hits recorded", name)
		}
		if m.Vals[r][3] <= 0 {
			t.Errorf("%s: GC reclaimed nothing under capacity pressure", name)
		}
	}
}

// TestX18P2PBeatsFeudalUnderFlashCrowd pins the experiment's headline
// claim (the acceptance gate): under the flash-crowd workload the feudal
// single-home-server arm blows its latency-budget SLA — the over-capacity
// spike queues its uplink for minutes — while the p2p arm, on an
// identical home link, keeps availability high because every visitor
// becomes a seeder. Under the steady zipf workload the same feudal server
// is fine, so it is demonstrably the flash that kills it, not the load
// level. Measured at seed 42 tiny scale: feudal 27.7% vs p2p 97.4%
// under flash; both ≥ 98% under zipf; p2p author share 10.5%.
func TestX18P2PBeatsFeudalUnderFlashCrowd(t *testing.T) {
	const (
		rFeudal = 0
		rP2P    = 2
		cAvail  = 0
		cOrigin = 2
	)
	flash := workloadMatrix(Env{Seed: 42, Tiny: true}, "flash")
	if got := flash.Vals[rFeudal][cAvail]; got >= 60 {
		t.Errorf("feudal availability %.1f%% under flash crowd, want SLA collapse (< 60%%)", got)
	}
	if got := flash.Vals[rP2P][cAvail]; got < 90 {
		t.Errorf("p2p availability %.1f%% under flash crowd, want ≥ 90%%", got)
	}
	if d := flash.Vals[rP2P][cAvail] - flash.Vals[rFeudal][cAvail]; d < 30 {
		t.Errorf("p2p beats feudal by only %.1f points under flash, want ≥ 30", d)
	}
	if got := flash.Vals[rP2P][cOrigin]; got >= 30 {
		t.Errorf("p2p author carries %.1f%% of served bytes, want the swarm to carry it (< 30%%)", got)
	}
	if got := flash.Vals[rFeudal][cOrigin]; got != 100 {
		t.Errorf("feudal origin share %.1f%%, must be 100%% by construction", got)
	}

	// Control: steady zipf at the same time-averaged rate — the feudal
	// box handles it, so the collapse above is the spike, not the volume.
	zipf := workloadMatrix(Env{Seed: 42, Tiny: true}, "zipf")
	for r, name := range zipf.Rows {
		if got := zipf.Vals[r][cAvail]; got < 90 {
			t.Errorf("%s availability %.1f%% under steady zipf, want ≥ 90%%", name, got)
		}
	}
}

// TestX19AdaptiveBeatsStatic pins the experiment's headline claim (the
// acceptance gate): under the same flash-crowd schedule, on the same
// home-uplink providers, enabling adaptive replication (a) cuts the
// origin's byte share at least 2× — the load the spike would have
// concentrated on one pinned holder spreads across the demand-sized
// replica set — and (b) brings p95 latency at or below the static arm's,
// because the set grows while the ramp still leaves the origin control
// headroom instead of queueing for minutes behind a saturated uplink.
// Measured at seed 42 tiny scale: static 94.0% origin / 48.9s p95 /
// 31.4% avail vs adaptive 21.8% / 2.1s / 89.8%.
func TestX19AdaptiveBeatsStatic(t *testing.T) {
	const (
		rStaticClean   = 0
		rAdaptiveClean = 2
		cAvail         = 0
		cP95           = 1
		cOrigin        = 2
	)
	m := replicationMatrix(Env{Seed: 42, Tiny: true})
	staticOrigin := m.Vals[rStaticClean][cOrigin]
	adaptOrigin := m.Vals[rAdaptiveClean][cOrigin]
	if adaptOrigin <= 0 || staticOrigin/adaptOrigin < 2 {
		t.Errorf("origin byte share: static %.1f%% vs adaptive %.1f%%, want ≥ 2× reduction",
			staticOrigin, adaptOrigin)
	}
	staticP95 := m.Vals[rStaticClean][cP95]
	adaptP95 := m.Vals[rAdaptiveClean][cP95]
	if adaptP95 > staticP95 {
		t.Errorf("p95 under flash: adaptive %.2fs vs static %.2fs, want adaptive ≤ static", adaptP95, staticP95)
	}
	if d := m.Vals[rAdaptiveClean][cAvail] - m.Vals[rStaticClean][cAvail]; d < 20 {
		t.Errorf("adaptive beats static by only %.1f availability points, want ≥ 20", d)
	}
}

// TestX20OverloadDegradesGracefully pins the experiment's headline claim
// (the acceptance gate): under the X18 flash schedule, at seed 42 tiny
// scale,
//
//	(a) the overload-protected feudal origin at least doubles the naive
//	    origin's within-SLA availability over the flash window — the
//	    naive uplink serves 30s-stale replies nobody is waiting for
//	    (measured: 6.6% naive vs 32.7% protected, ~5×), and
//	(b) the protected origin's control plane stays responsive through
//	    the spike: ctl-ping p95 bounded by 1s while the naive origin's
//	    probe pegs at the 10s timeout (measured: 0.12s vs 10.00s), and
//	(c) protecting the replic swarm helps too — adverts and directory
//	    calls ride the priority lane out of saturated providers, so the
//	    protected swarm's flash-window availability beats the naive
//	    swarm's (measured: 85.4% vs 69.8%) with its hot-provider
//	    control p95 likewise bounded (0.17s vs 2.84s).
func TestX20OverloadDegradesGracefully(t *testing.T) {
	const (
		rFeudalNaive = 0 // feudal-naive-clean
		rFeudalOvld  = 2 // feudal-ovld-clean
		rReplicNaive = 4 // replic-naive-clean
		rReplicOvld  = 6 // replic-ovld-clean
		cFlash       = 0
		cCtlP95      = 3
		cShed        = 4
	)
	m := overloadMatrix(Env{Seed: 42, Tiny: true})

	naive := m.Vals[rFeudalNaive][cFlash]
	ovld := m.Vals[rFeudalOvld][cFlash]
	if ovld < 2*naive || ovld <= 0 {
		t.Errorf("feudal flash-window availability: naive %.1f%% vs protected %.1f%%, want ≥ 2×", naive, ovld)
	}
	if p95 := m.Vals[rFeudalOvld][cCtlP95]; p95 > 1 {
		t.Errorf("protected origin ctl-ping p95 = %.2fs through the spike, want ≤ 1s", p95)
	}
	if p95 := m.Vals[rFeudalNaive][cCtlP95]; p95 < 2 {
		t.Errorf("naive origin ctl-ping p95 = %.2fs — the spike no longer starves the naive control plane, so the comparison is vacuous", p95)
	}
	if shed := m.Vals[rFeudalOvld][cShed]; shed == 0 {
		t.Error("protected origin shed nothing under the flash — admission control never engaged")
	}

	if naive, ovld := m.Vals[rReplicNaive][cFlash], m.Vals[rReplicOvld][cFlash]; ovld <= naive {
		t.Errorf("replic flash-window availability: naive %.1f%% vs protected %.1f%%, want protected higher", naive, ovld)
	}
	if p95 := m.Vals[rReplicOvld][cCtlP95]; p95 > 1 {
		t.Errorf("protected hot provider ctl-ping p95 = %.2fs through the spike, want ≤ 1s", p95)
	}
}

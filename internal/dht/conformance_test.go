package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// dhtConformanceRun builds a 16-peer Kademlia network, publishes keys from
// a stable anchor, drives the network through one fault scenario, and
// returns the post-recovery lookup success rate.
func dhtConformanceRun(t testing.TB, seed int64, sc fault.Scenario) float64 {
	t.Helper()
	const (
		nPeers  = 16
		nKeys   = 15
		horizon = 40 * time.Minute
	)
	nw := simnet.New(seed)
	cfg := Config{K: 4, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	peers := make([]*Peer, nPeers)
	for i := range peers {
		peers[i] = NewPeer(nw.AddNode(), Key{}, cfg)
	}
	for i := 1; i < nPeers; i++ {
		i := i
		nw.After(time.Duration(i)*200*time.Millisecond, func() {
			peers[i].Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.Run(time.Duration(nPeers) * 400 * time.Millisecond)

	keys := make([]Key, nKeys)
	for i := range keys {
		keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("conformance-%d", i)))
		peers[0].Put(keys[i], []byte{byte(i)}, nil)
	}
	nw.Run(nw.Now() + 2*time.Minute)

	// The publisher (peer 0) is the anchor: it stays eligible for network-
	// wide faults (partitions, corruption) but is never crashed or degraded,
	// so republish keeps running — the question is whether readers recover.
	eligible := make([]simnet.NodeID, 0, nPeers-1)
	for _, p := range peers[1:] {
		eligible = append(eligible, p.Node().ID())
	}
	start := nw.Now()
	sc.Build(seed, eligible, horizon).ApplyAt(nw, start)
	nw.Run(start + horizon)

	// Recovery probe: every peer (all back up by now) looks up every key.
	ok, total := 0, 0
	for _, reader := range peers[1:] {
		for _, k := range keys {
			total++
			found := false
			reader.Get(k, func(_ []byte, f bool) { found = f })
			nw.Run(nw.Now() + 30*time.Second)
			if found {
				ok++
			}
		}
	}
	return float64(ok) / float64(total)
}

// TestDHTRecoveryConformance: post-recovery lookup success must meet the
// per-scenario floor. Clean is the 100% ceiling; faulted scenarios must
// stay above 90% — republish and routing-table self-healing are the
// mechanisms under test.
func TestDHTRecoveryConformance(t *testing.T) {
	floors := map[string]float64{
		"clean":           1.0,
		"lossy-edge":      0.9,
		"flash-partition": 0.9,
		"rolling-churn":   0.9,
		"corrupt-10pct":   0.9,
	}
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := dhtConformanceRun(t, 402, sc)
			if floor := floors[sc.Name]; got < floor {
				t.Errorf("post-recovery lookup success %.2f below floor %.2f", got, floor)
			}
		})
	}
}

// TestDHTConformanceDeterministic: the recovery metric is a pure function
// of the seed.
func TestDHTConformanceDeterministic(t *testing.T) {
	sc := fault.RollingChurn()
	if a, b := dhtConformanceRun(t, 77, sc), dhtConformanceRun(t, 77, sc); a != b {
		t.Errorf("same seed gave different success rates: %v vs %v", a, b)
	}
}

// dhtMidFaultRun measures availability *during* the fault window rather
// than after it: a resilient probe peer issues a PUT of a fresh key at a
// fixed cadence while the scenario is active, and a probe counts as
// available iff the store round completes with at least one replica
// within the 2s SLA. A PUT is the honest probe here — a FIND_VALUE's
// α-parallel first-found-wins lookup hides individual peer timeouts.
func dhtMidFaultRun(t testing.TB, seed int64, sc fault.Scenario, rcfg resil.Config) float64 {
	t.Helper()
	const (
		nPeers  = 16
		nProbes = 8
		horizon = 30 * time.Minute
		sla     = 2 * time.Second
	)
	nw := simnet.New(seed)
	base := Config{K: 4, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	proberCfg := base
	proberCfg.Resilience = rcfg
	proberCfg.RepublishInterval = 0 // probe keys are one-shot; no republish chatter
	peers := make([]*Peer, nPeers)
	for i := range peers {
		cfg := base
		if i == 1 {
			cfg = proberCfg
		}
		peers[i] = NewPeer(nw.AddNode(), Key{}, cfg)
	}
	for i := 1; i < nPeers; i++ {
		i := i
		nw.After(time.Duration(i)*200*time.Millisecond, func() {
			peers[i].Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.Run(time.Duration(nPeers) * 400 * time.Millisecond)

	// Anchors: the bootstrap peer and the prober stay healthy; everyone
	// else is fault-eligible.
	eligible := make([]simnet.NodeID, 0, nPeers-2)
	for _, p := range peers[2:] {
		eligible = append(eligible, p.Node().ID())
	}
	start := nw.Now()
	plan := sc.Build(seed, eligible, horizon)
	plan.ApplyAt(nw, start)
	ws, we := plan.Start(), plan.End()
	if we <= ws { // clean plan: probe the whole horizon
		ws, we = 0, horizon
	}

	ok, total := 0, 0
	for i := 0; i < nProbes; i++ {
		i := i
		total++
		nw.Schedule(start+ws+time.Duration(i)*(we-ws)/nProbes, func() {
			launched := nw.Now()
			k := cryptoutil.SumHash([]byte(fmt.Sprintf("midfault-%d", i)))
			peers[1].Put(k, []byte{byte(i)}, func(stored int) {
				if stored > 0 && nw.Now()-launched <= sla {
					ok++
				}
			})
		})
	}
	nw.Run(start + horizon)
	return float64(ok) / float64(total)
}

// TestDHTMidFaultAvailability: with the resilience layer on, publishes
// issued while the scenario is actively crashing, partitioning, and
// degrading peers must still land within the interactive SLA at the
// per-scenario floor — availability during adversity, not just recovery
// after it, is the conformance bar.
func TestDHTMidFaultAvailability(t *testing.T) {
	// flash-partition's floor is deliberately low: while a partition pulse
	// actively separates the prober from a key's replica set, no transport
	// adaptation can complete the store — the floor only pins that probes
	// landing between pulses still succeed.
	floors := map[string]float64{
		"clean":           1.0,
		"lossy-edge":      0.5,
		"flash-partition": 0.1,
		"rolling-churn":   0.5,
		"corrupt-10pct":   0.5,
	}
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := dhtMidFaultRun(t, 407, sc, resil.Defaults())
			if floor := floors[sc.Name]; got < floor {
				t.Errorf("mid-fault put availability %.2f below floor %.2f", got, floor)
			}
			t.Logf("mid-fault availability %.2f", got)
		})
	}
}

package webapp

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// webappConformanceRun publishes a hostless site, lets a few early visitors
// become seeders, drives the visitor fleet through a fault scenario, and
// returns the post-recovery visit success rate. The tracker and the author
// are anchors; every visitor is fault-eligible.
func webappConformanceRun(t testing.TB, seed int64, sc fault.Scenario) float64 {
	t.Helper()
	const (
		nVisitors = 8
		horizon   = 40 * time.Minute
	)
	nw := simnet.New(seed)
	tracker := NewTracker(nw.AddNode())
	authorNode := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dht.Config{})
	author := NewPeer(authorNode, authorDHT, tracker.Node().ID(), 30*time.Second, PeerConfig{})
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		t.Fatal(err)
	}

	visitors := make([]*Peer, nVisitors)
	eligible := make([]simnet.NodeID, nVisitors)
	for i := range visitors {
		node := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		d.Bootstrap(authorDHT.Contact(), nil)
		visitors[i] = NewPeer(node, d, tracker.Node().ID(), 30*time.Second, PeerConfig{})
		eligible[i] = node.ID()
	}
	nw.Run(2 * time.Minute) // settle DHT routing tables

	files := map[string][]byte{
		"index.html": []byte("<html><body>conformance</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	var site cryptoutil.Hash
	author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	if site.IsZero() {
		t.Fatal("publish did not complete in the setup window")
	}

	// A couple of early visits so the bundle is seeded beyond the author
	// before the adversity starts.
	for _, p := range visitors[:2] {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

	start := nw.Now()
	sc.Build(seed, eligible, horizon).ApplyAt(nw, start)
	// Mid-run visits keep the swarm busy during the fault window; their
	// outcome is not asserted — only recovery is.
	for i, p := range visitors {
		p := p
		nw.Schedule(start+time.Duration(i+1)*horizon/16, func() {
			p.Visit(site, func(map[string][]byte, error) {})
		})
	}
	nw.Run(start + horizon)

	// Post-recovery probe: every visitor (all back up) fetches the site.
	ok := 0
	for _, p := range visitors {
		good := false
		p.Visit(site, func(fs map[string][]byte, err error) { good = err == nil && len(fs) == len(files) })
		nw.Run(nw.Now() + time.Minute)
		if good {
			ok++
		}
	}
	return float64(ok) / float64(nVisitors)
}

// TestWebappRecoveryConformance: once faults clear, every visitor must be
// able to fetch the full site again.
func TestWebappRecoveryConformance(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if got := webappConformanceRun(t, 406, sc); got < 1.0 {
				t.Errorf("post-recovery visit success %.3f, want 1.0", got)
			}
		})
	}
}

// TestWebappConformanceDeterministic: the success rate is a pure function
// of the seed.
func TestWebappConformanceDeterministic(t *testing.T) {
	sc, _ := fault.ByName("lossy-edge")
	if a, b := webappConformanceRun(t, 66, sc), webappConformanceRun(t, 66, sc); a != b {
		t.Errorf("same seed gave different rates: %v vs %v", a, b)
	}
}

// webappMidFaultRun measures visit availability during the fault window:
// fresh, never-before-used visitors (a warm visitor would serve the site
// from its own blob cache and measure nothing) fetch the site at a fixed
// cadence while the seeder fleet is under fault, riding the resilience
// layer for manifest, tracker, and blob RPCs. A probe counts as available
// iff the full site lands within the 15s SLA.
func webappMidFaultRun(t testing.TB, seed int64, sc fault.Scenario, rcfg resil.Config) float64 {
	t.Helper()
	const (
		nSeeders = 8
		nProbes  = 8
		horizon  = 30 * time.Minute
		sla      = 15 * time.Second
	)
	nw := simnet.New(seed)
	tracker := NewTracker(nw.AddNode())
	authorNode := nw.AddNode()
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dht.Config{})
	author := NewPeer(authorNode, authorDHT, tracker.Node().ID(), 30*time.Second, PeerConfig{})
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		t.Fatal(err)
	}

	probeDHTCfg := dht.Config{Resilience: rcfg}
	seeders := make([]*Peer, nSeeders)
	eligible := make([]simnet.NodeID, nSeeders)
	for i := range seeders {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		d.Bootstrap(authorDHT.Contact(), nil)
		seeders[i] = NewPeer(node, d, tracker.Node().ID(), 30*time.Second, PeerConfig{})
		eligible[i] = node.ID()
	}
	// One cold visitor per probe, bootstrapped before the faults begin and
	// used exactly once.
	visitors := make([]*Peer, nProbes)
	for i := range visitors {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, probeDHTCfg)
		d.Bootstrap(authorDHT.Contact(), nil)
		visitors[i] = NewPeer(node, d, tracker.Node().ID(), 30*time.Second, PeerConfig{Resilience: rcfg})
	}
	nw.Run(2 * time.Minute)

	files := map[string][]byte{
		"index.html": []byte("<html><body>midfault</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	var site cryptoutil.Hash
	author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	if site.IsZero() {
		t.Fatal("publish did not complete in the setup window")
	}
	for _, p := range seeders {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

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
			visitors[i].Visit(site, func(fs map[string][]byte, err error) {
				if err == nil && len(fs) == len(files) && nw.Now()-launched <= sla {
					ok++
				}
			})
		})
	}
	nw.Run(start + horizon)
	return float64(ok) / float64(total)
}

// TestWebappMidFaultAvailability: with the resilience layer on, cold
// visitors must keep landing the full site at the per-scenario floor
// while the seeder swarm is actively under fault — the author and the
// tracker stay up, so blob-source failover plus adaptive timeouts decide
// the outcome.
func TestWebappMidFaultAvailability(t *testing.T) {
	floors := map[string]float64{
		"clean":           1.0,
		"lossy-edge":      0.75,
		"flash-partition": 0.5,
		"rolling-churn":   0.75,
		"corrupt-10pct":   0.75,
	}
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := webappMidFaultRun(t, 410, sc, resil.Defaults())
			if floor := floors[sc.Name]; got < floor {
				t.Errorf("mid-fault visit availability %.2f below floor %.2f", got, floor)
			}
			t.Logf("mid-fault availability %.2f", got)
		})
	}
}

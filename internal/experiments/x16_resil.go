package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/groupcomm"
	"repro/internal/overload"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/storage"
	"repro/internal/webapp"
)

// X16: the resilience matrix. X14 measures whether subsystems recover
// *after* faults clear; X16 measures what a user experiences *during*
// them — the paper's §5.3 argument is that self-* properties, not the
// happy path, decide whether volunteer infrastructure can displace the
// feudal clouds. Each client-facing subsystem is driven through the fault
// battery plus a sustained-churn scenario that never heals, once on the
// historical fixed-timeout transport ("naive") and once on the adaptive
// resilience layer ("resil": Jacobson/Karels RTO, backed-off retries,
// per-peer breakers, p95 hedging — internal/resil). Per cell:
//
//	avail%    fraction of probe operations launched inside the fault
//	          window that succeed within the subsystem's SLA
//	p95(s)    p95 probe-operation latency over the fault window
//	msg/node  substrate messages sent from fault start to run end, per
//	          node — the bandwidth price of the retries and hedges
//	rec(m)    minutes after the last fault step until the recovery
//	          invariant first holds (X14's measure, kept for continuity)
//
// Everything is a pure function of the seed: worlds, fault plans, probe
// schedules, and every retry/hedge decision are deterministic, so the
// matrix is byte-identical at any trial-worker count.

// resilScenarios is the X16 battery: the canonical set plus the
// non-healing sustained-churn stressor (which deliberately stays out of
// fault.Scenarios() — see its contract note).
func resilScenarios() []fault.Scenario {
	return append(fault.Scenarios(), fault.SustainedChurn())
}

// resilMode is one transport configuration under test.
type resilMode struct {
	name string
	cfg  resil.Config
}

func resilModes() []resilMode {
	return []resilMode{
		{"naive", resil.Config{}},
		{"resil", resil.Defaults()},
	}
}

// resilSpec sizes one X16 world. DHT runs at the full 1000-node
// population — adaptive timeouts only earn their keep when lookups
// traverse many hops of mixed-quality peers.
type resilSpec struct {
	horizon time.Duration
	nodes   int
	probes  int
}

func rspec(tiny bool, fullNodes, tinyNodes int) resilSpec {
	if tiny {
		return resilSpec{horizon: 8 * time.Minute, nodes: tinyNodes, probes: 8}
	}
	return resilSpec{horizon: 20 * time.Minute, nodes: fullNodes, probes: 24}
}

// resilCell is one (subsystem, mode, scenario) measurement.
type resilCell struct {
	slaScore   // availability in [0, 1] and p95 seconds over the probes
	msgPerNode float64
	rec        time.Duration
}

// meterAvailability launches probe at a fixed cadence through
// [wStart, wEnd) (offsets relative to start) and scores each launch
// against the subsystem SLA.
func meterAvailability(nw *simnet.Network, start, wStart, wEnd, interval, sla time.Duration, probe func(done func(bool))) *slaMeter {
	m := newSLAMeter(sla, 1)
	m.every(nw, start, wStart, wEnd, interval, nw.Now, probe)
	return m
}

// probeWindow returns the span probes are launched over: the plan's
// active window, or the whole horizon for an empty (clean) plan.
func probeWindow(p *fault.Plan, horizon time.Duration) (time.Duration, time.Duration) {
	ws, we := p.Start(), p.End()
	if we <= ws {
		return 0, horizon
	}
	return ws, we
}

// sentMeter snapshots the substrate's sent-message counter at a virtual
// time, so traffic can be charged to the fault window only.
func sentMeter(nw *simnet.Network, at time.Duration) *int64 {
	base := new(int64)
	nw.Schedule(at, func() { *base = nw.Trace().Sent })
	return base
}

// resilDHT: a 1000-node Kademlia population. The probe is a PUT of a
// fresh key from a dedicated probe peer: unlike a FIND_VALUE — whose
// α-parallel first-found-wins lookup hides individual timeouts — a store
// round completes only when every replica call resolves, so one crashed
// or lossy holder pins the naive client at the full fixed timeout. Only
// the probe peer carries the mode's resilience config, so the two rows
// differ in nothing but the client transport under test. The SLA is
// interactive-grade: a name publish has 2s to land.
func resilDHT(seed int64, sc fault.Scenario, rcfg resil.Config, tiny bool) resilCell {
	sp := rspec(tiny, 1000, 30)
	const nKeys = 8
	sla := 2 * time.Second
	nw := simnet.New(seed)
	base := dht.Config{K: 8, Alpha: 3, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	readerCfg := base
	readerCfg.Resilience = rcfg
	readerCfg.RepublishInterval = 0 // probe keys are one-shot; no republish chatter
	peers := make([]*dht.Peer, sp.nodes)
	for i := range peers {
		cfg := base
		if i == 1 {
			cfg = readerCfg
		}
		peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, cfg)
	}
	for i := 1; i < len(peers); i++ {
		p := peers[i]
		nw.After(time.Duration(i)*20*time.Millisecond, func() {
			p.Bootstrap(peers[0].Contact(), nil)
		})
	}
	// Bounded run: the republish timer chain never drains, so RunAll
	// would spin forever.
	nw.Run(time.Duration(sp.nodes)*20*time.Millisecond + 30*time.Second)
	keys := make([]dht.Key, nKeys)
	for i := range keys {
		keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("x16-%d", i)))
		peers[0].Put(keys[i], []byte{byte(i)}, nil)
	}
	nw.Run(nw.Now() + time.Minute)

	// Anchors: the bootstrap/publisher peer and the reader stay up.
	eligible := make([]simnet.NodeID, 0, len(peers)-2)
	for _, p := range peers[2:] {
		eligible = append(eligible, p.Node().ID())
	}
	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	ws, we := probeWindow(plan, sp.horizon)
	sent := sentMeter(nw, start+ws)
	probeN := 0
	am := meterAvailability(nw, start, ws, we, (we-ws)/time.Duration(sp.probes), sla, func(done func(bool)) {
		probeN++
		k := cryptoutil.SumHash([]byte(fmt.Sprintf("x16-probe-%d", probeN)))
		peers[1].Put(k, []byte{byte(probeN)}, func(stored int) { done(stored > 0) })
	})
	recN := 0
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(recoverySpec{horizon: sp.horizon}), func(done func(bool)) {
		recN++
		peers[1].Get(keys[recN%nKeys], func(_ []byte, found bool) { done(found) })
	})
	nw.Run(start + sp.horizon)
	return resilCell{
		slaScore:   am.score(),
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(sp.nodes),
		rec:        tr.recovery(plan.End(), sp.horizon),
	}
}

// resilStorage: an object uploaded before the faults, probed by full
// downloads during them. Chunk fetches walk the replica list, so a naive
// client burns its whole fixed timeout on every crashed provider it
// tries first.
func resilStorage(seed int64, sc fault.Scenario, rcfg resil.Config, tiny bool) resilCell {
	sp := rspec(tiny, 16, 6)
	sla := 10 * time.Second
	nw := simnet.New(seed)
	client := storage.NewClient(nw.AddNode(), 30*time.Second, rcfg)
	providers := make([]*storage.Provider, sp.nodes)
	refs := make([]storage.ProviderRef, sp.nodes)
	eligible := make([]simnet.NodeID, sp.nodes)
	for i := range providers {
		providers[i] = storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 20})
		refs[i] = providers[i].Ref()
		eligible[i] = providers[i].Node().ID()
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var manifest *storage.Manifest
	var placement *storage.Placement
	client.Upload(data, 512, refs, 3, func(m *storage.Manifest, pl *storage.Placement, err error) {
		if err == nil {
			manifest, placement = m, pl
		}
	})
	nw.Run(nw.Now() + time.Minute)
	if manifest == nil {
		return resilCell{rec: sp.horizon}
	}
	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	ws, we := probeWindow(plan, sp.horizon)
	sent := sentMeter(nw, start+ws)
	download := func(done func(bool)) {
		client.Download(manifest, placement, func(b []byte, err error) {
			done(err == nil && len(b) == len(data))
		})
	}
	am := meterAvailability(nw, start, ws, we, (we-ws)/time.Duration(sp.probes), sla, download)
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(recoverySpec{horizon: sp.horizon}), download)
	nw.Run(start + sp.horizon)
	return resilCell{
		slaScore:   am.score(),
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(sp.nodes+1),
		rec:        tr.recovery(plan.End(), sp.horizon),
	}
}

// resilGroupcomm: a Matrix-style replicated federation read through a
// failover client. Every server is fault-eligible — failover is the
// subsystem's whole answer to a dead homeserver, so the question is how
// fast the client walks the server list.
func resilGroupcomm(seed int64, sc fault.Scenario, rcfg resil.Config, tiny bool) resilCell {
	sp := rspec(tiny, 6, 4)
	sla := 8 * time.Second
	nw := simnet.New(seed)
	servers := make([]*groupcomm.ReplServer, sp.nodes)
	ids := make([]simnet.NodeID, sp.nodes)
	for i := range servers {
		servers[i] = groupcomm.NewReplServer(nw.AddNode(), fmt.Sprintf("srv%d", i), nil,
			gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
		ids[i] = servers[i].Node().ID()
	}
	for i, s := range servers {
		peers := make([]simnet.NodeID, 0, sp.nodes-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		s.SetPeers(peers)
	}
	client := groupcomm.NewReplClient(nw.AddNode(), ids[0], ids[1:], "alice", 10*time.Second, rcfg)
	for i := 0; i < 4; i++ {
		i := i
		nw.After(time.Duration(i+1)*10*time.Second, func() {
			client.Post("lobby", []byte(fmt.Sprintf("pre-fault %d", i)), func(bool) {})
		})
	}
	nw.Run(2 * time.Minute)

	start := nw.Now()
	plan := sc.Build(seed, ids, sp.horizon)
	plan.ApplyAt(nw, start)
	ws, we := probeWindow(plan, sp.horizon)
	sent := sentMeter(nw, start+ws)
	fetch := func(done func(bool)) {
		client.Fetch("lobby", func(posts []groupcomm.Post, ok bool) {
			done(ok && len(posts) > 0)
		})
	}
	am := meterAvailability(nw, start, ws, we, (we-ws)/time.Duration(sp.probes), sla, fetch)
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(recoverySpec{horizon: sp.horizon}), fetch)
	nw.Run(start + sp.horizon)
	return resilCell{
		slaScore:   am.score(),
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(sp.nodes+1),
		rec:        tr.recovery(plan.End(), sp.horizon),
	}
}

// resilWebapp: a hostless site under seeder churn. Each probe is a full
// Visit by a fresh, never-before-used visitor (a warm visitor would
// serve the site from its own blob cache and measure nothing), resolving
// the manifest via DHT-with-tracker-fallback and fetching blobs from
// whatever seeders answer.
func resilWebapp(seed int64, sc fault.Scenario, rcfg resil.Config, tiny bool) resilCell {
	sp := rspec(tiny, 12, 5)
	sla := 15 * time.Second
	nw := simnet.New(seed)
	tracker := webapp.NewTracker(nw.AddNode(), overload.Config{})
	authorNode := nw.AddNode()
	dhtCfg := dht.Config{}
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dhtCfg)
	author := webapp.NewPeer(authorNode, authorDHT, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{})
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		return resilCell{rec: sp.horizon}
	}
	probeDHTCfg := dhtCfg
	probeDHTCfg.Resilience = rcfg
	seeders := make([]*webapp.Peer, sp.nodes)
	eligible := make([]simnet.NodeID, sp.nodes)
	for i := range seeders {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, dhtCfg)
		d.Bootstrap(authorDHT.Contact(), nil)
		seeders[i] = webapp.NewPeer(node, d, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{})
		eligible[i] = node.ID()
	}
	// One cold visitor per probe (mid-fault and recovery), bootstrapped
	// before the faults, used exactly once.
	nVisitors := sp.probes + 20
	visitors := make([]*webapp.Peer, nVisitors)
	for i := range visitors {
		node := nw.AddNode()
		d := dht.NewPeer(node, dht.Key{}, probeDHTCfg)
		d.Bootstrap(authorDHT.Contact(), nil)
		visitors[i] = webapp.NewPeer(node, d, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{Resilience: rcfg})
	}
	nw.Run(2 * time.Minute)
	files := map[string][]byte{
		"index.html": []byte("<html><body>x16</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	var site cryptoutil.Hash
	author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *webapp.Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	if site.IsZero() {
		return resilCell{rec: sp.horizon}
	}
	for _, p := range seeders {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	ws, we := probeWindow(plan, sp.horizon)
	sent := sentMeter(nw, start+ws)
	visitN := 0
	visit := func(done func(bool)) {
		if visitN >= len(visitors) {
			done(false)
			return
		}
		v := visitors[visitN]
		visitN++
		v.Visit(site, func(fs map[string][]byte, err error) {
			done(err == nil && len(fs) == len(files))
		})
	}
	am := meterAvailability(nw, start, ws, we, (we-ws)/time.Duration(sp.probes), sla, visit)
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(recoverySpec{horizon: sp.horizon}), visit)
	nw.Run(start + sp.horizon)
	return resilCell{
		slaScore:   am.score(),
		msgPerNode: float64(nw.Trace().Sent-*sent) / float64(sp.nodes+2),
		rec:        tr.recovery(plan.End(), sp.horizon),
	}
}

// resilienceMatrix is the numeric core of X16: rows are subsystem × mode,
// columns run four measures per scenario, so one Matrix carries the whole
// grid through AggregateSeeds.
func resilienceMatrix(seed int64, tiny bool) Matrix {
	scs := resilScenarios()
	modes := resilModes()
	cols := make([]string, 0, 4*len(scs))
	for _, sc := range scs {
		cols = append(cols,
			sc.Name+" avail%", sc.Name+" p95(s)", sc.Name+" msg/node", sc.Name+" rec(m)")
	}
	runners := []struct {
		name string
		run  func(seed int64, sc fault.Scenario, rcfg resil.Config, tiny bool) resilCell
	}{
		{"dht", resilDHT},
		{"storage", resilStorage},
		{"groupcomm", resilGroupcomm},
		{"webapp", resilWebapp},
	}
	rows := make([]string, 0, len(runners)*len(modes))
	for _, r := range runners {
		for _, m := range modes {
			rows = append(rows, r.name+" "+m.name)
		}
	}
	m := NewMatrix(rows, cols)
	ri := 0
	for _, runner := range runners {
		for _, mode := range modes {
			for c, sc := range scs {
				cell := runner.run(seed, sc, mode.cfg, tiny)
				m.Vals[ri][4*c] = cell.avail * 100
				m.Vals[ri][4*c+1] = cell.p95
				m.Vals[ri][4*c+2] = cell.msgPerNode
				m.Vals[ri][4*c+3] = cell.rec.Minutes()
			}
			ri++
		}
	}
	return m
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/groupcomm"
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

// resilSpec sizes one X16 world.
func resilSpec(tiny bool, fullNodes, tinyNodes int) faultSpec {
	if tiny {
		return faultSpec{horizon: 8 * time.Minute, nodes: tinyNodes, probes: 8}
	}
	return faultSpec{horizon: 20 * time.Minute, nodes: fullNodes, probes: 24}
}

// resilWorlds is the subsystem axis of X16 with each row's full and tiny
// populations. DHT runs at the full 1000-node population — adaptive
// timeouts only earn their keep when lookups traverse many hops of
// mixed-quality peers.
var resilWorlds = []struct {
	name        string
	nodes, tiny int
	world       func(seed int64, sp faultSpec, rcfg resil.Config) faultWorld
}{
	{"dht", 1000, 30, dhtResilWorld},
	{"storage", 16, 6, storageResilWorld},
	{"groupcomm", 6, 4, groupcommResilWorld},
	{"webapp", 12, 5, webappResilWorld},
}

// dhtResilWorld: a 1000-node Kademlia population. The probe is a PUT of a
// fresh key from a dedicated probe peer: unlike a FIND_VALUE — whose
// α-parallel first-found-wins lookup hides individual timeouts — a store
// round completes only when every replica call resolves, so one crashed
// or lossy holder pins the naive client at the full fixed timeout. Only
// the probe peer carries the mode's resilience config, so the two rows
// differ in nothing but the client transport under test. The SLA is
// interactive-grade: a name publish has 2s to land.
func dhtResilWorld(seed int64, sp faultSpec, rcfg resil.Config) faultWorld {
	nw := simnet.New(seed)
	base := dht.Config{K: 8, Alpha: 3, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	readerCfg := base
	readerCfg.Resilience = rcfg
	readerCfg.RepublishInterval = 0 // probe keys are one-shot; no republish chatter
	peers := growDHT(nw, sp.nodes, 20*time.Millisecond, func(i int) dht.Config {
		if i == 1 {
			return readerCfg
		}
		return base
	})
	// Bounded run: the republish timer chain never drains, so RunAll
	// would spin forever.
	nw.Run(time.Duration(sp.nodes)*20*time.Millisecond + 30*time.Second)
	keys := putKeys(peers[0], 8, "x16-%d")
	nw.Run(nw.Now() + time.Minute)

	reader := peers[1]
	probeN, sampleN := 0, 0
	return faultWorld{
		// Anchors: the bootstrap/publisher peer and the reader stay up.
		nw: nw, eligible: nodeIDs(peers[2:]), msgNodes: sp.nodes,
		sla: 2 * time.Second,
		probe: func(done func(bool)) {
			probeN++
			k := cryptoutil.SumHash([]byte(fmt.Sprintf("x16-probe-%d", probeN)))
			reader.Put(k, []byte{byte(probeN)}, func(stored int) { done(stored > 0) })
		},
		healthy: func(done func(bool)) {
			sampleN++
			reader.Get(keys[sampleN%len(keys)], func(_ []byte, found bool) { done(found) })
		},
	}
}

// storageResilWorld: an object uploaded before the faults, probed by full
// downloads during them. Chunk fetches walk the replica list, so a naive
// client burns its whole fixed timeout on every crashed provider it
// tries first.
func storageResilWorld(seed int64, sp faultSpec, rcfg resil.Config) faultWorld {
	nw := simnet.New(seed)
	fleet := newStorageFleet(nw, sp.nodes, 30*time.Second, rcfg, storage.ProviderConfig{Capacity: 1 << 20})
	obj := fleet.uploadPattern(nw, 31)
	if obj.m == nil {
		return faultWorld{}
	}
	download := func(done func(bool)) {
		fleet.client.Download(obj.m, obj.pl, func(b []byte, err error) {
			done(err == nil && len(b) == len(obj.data))
		})
	}
	return faultWorld{
		nw: nw, eligible: nodeIDs(fleet.provs), msgNodes: sp.nodes + 1,
		sla: 10 * time.Second, probe: download, healthy: download,
	}
}

// groupcommResilWorld: a Matrix-style replicated federation read through a
// failover client. Every server is fault-eligible — failover is the
// subsystem's whole answer to a dead homeserver, so the question is how
// fast the client walks the server list.
func groupcommResilWorld(seed int64, sp faultSpec, rcfg resil.Config) faultWorld {
	nw := simnet.New(seed)
	servers := make([]*groupcomm.ReplServer, sp.nodes)
	for i := range servers {
		servers[i] = groupcomm.NewReplServer(nw.AddNode(), fmt.Sprintf("srv%d", i), nil,
			gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
	}
	ids := nodeIDs(servers)
	for i, s := range servers {
		s.SetPeers(othersOf(ids, i))
	}
	client := groupcomm.NewReplClient(nw.AddNode(), ids[0], ids[1:], "alice", 10*time.Second, rcfg)
	for i := 0; i < 4; i++ {
		nw.After(time.Duration(i+1)*10*time.Second, func() {
			client.Post("lobby", []byte(fmt.Sprintf("pre-fault %d", i)), func(bool) {})
		})
	}
	nw.Run(2 * time.Minute)

	fetch := func(done func(bool)) {
		client.Fetch("lobby", func(posts []groupcomm.Post, ok bool) {
			done(ok && len(posts) > 0)
		})
	}
	return faultWorld{
		nw: nw, eligible: ids, msgNodes: sp.nodes + 1,
		sla: 8 * time.Second, probe: fetch, healthy: fetch,
	}
}

// webappResilWorld: a hostless site under seeder churn. Each probe is a
// full Visit by a fresh, never-before-used visitor (a warm visitor would
// serve the site from its own blob cache and measure nothing), resolving
// the manifest via DHT-with-tracker-fallback and fetching blobs from
// whatever seeders answer.
func webappResilWorld(seed int64, sp faultSpec, rcfg resil.Config) faultWorld {
	nw := simnet.New(seed)
	link := simnet.DatacenterProfile()
	web := newWebSwarm(nw, link, 30*time.Second)
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		return faultWorld{}
	}
	seeders := web.join(sp.nodes, link, dht.Config{}, webapp.PeerConfig{}, 0)
	// One cold visitor per availability probe and per recovery sample,
	// bootstrapped before the faults, used exactly once.
	visitors := web.join(sp.probes+recoverySamples, link,
		dht.Config{Resilience: rcfg}, webapp.PeerConfig{Resilience: rcfg}, 0)
	nw.Run(2 * time.Minute)
	files := map[string][]byte{
		"index.html": []byte("<html><body>x16</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	site := web.publish(owner, files)
	if site.IsZero() {
		return faultWorld{}
	}
	for _, p := range seeders {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

	visit := func(done func(bool)) {
		if len(visitors) == 0 {
			done(false)
			return
		}
		v := visitors[0]
		visitors = visitors[1:]
		v.Visit(site, func(fs map[string][]byte, err error) {
			done(err == nil && len(fs) == len(files))
		})
	}
	return faultWorld{
		// Tracker and author are the two counted anchors; the visitor pool
		// is instrumentation and stays out of the msg/node denominator.
		nw: nw, eligible: nodeIDs(seeders), msgNodes: sp.nodes + 2,
		sla: 15 * time.Second, probe: visit, healthy: visit,
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
	m := Matrix{Cols: cols}
	for _, w := range resilWorlds {
		sp := resilSpec(tiny, w.nodes, w.tiny)
		for _, mode := range modes {
			var row []float64
			for _, sc := range scs {
				cell := runFaultCell(seed, sc, sp, w.world(seed, sp, mode.cfg))
				row = append(row, cell.avail*100, cell.p95, cell.msgPerNode, cell.rec.Minutes())
			}
			m.add(w.name+" "+mode.name, row...)
		}
	}
	return m
}

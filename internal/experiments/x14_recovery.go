package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/chain"
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

// RecoveryMatrix is experiment X14: every subsystem is driven through the
// canonical fault battery (internal/simnet/fault) and measured on two
// axes — how completely it recovers once faults clear (success %) and how
// long after the last fault the recovery invariant first holds again
// (recovery time). It quantifies §5.3: the hard problems of decentralized
// systems are not the happy path but churn, partitions, and garbage links,
// and a credible alternative to the feudal clouds has to self-heal from
// all of them without an operator.
func RecoveryMatrix(seed int64) *Table { return matrixExpByID("x14").run(seed) }

func scenarioNames(scs []fault.Scenario) []string {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}

// recoverySpec sizes one X14 run. Tiny halves the horizon and shrinks the
// worlds so the whole matrix stays test-suite fast.
type recoverySpec struct {
	horizon time.Duration
	nodes   int
}

func spec(tiny bool, fullNodes int) recoverySpec {
	if tiny {
		n := fullNodes / 2
		if n < 3 {
			n = 3
		}
		return recoverySpec{horizon: 10 * time.Minute, nodes: n}
	}
	return recoverySpec{horizon: 20 * time.Minute, nodes: fullNodes}
}

// recoveryMatrix is the numeric core of X14: rows are subsystems, columns
// alternate "<scenario> ok%" and "<scenario> rec(m)" so one Matrix carries
// both measures through AggregateSeeds.
func recoveryMatrix(seed int64, tiny bool) Matrix {
	scs := fault.Scenarios()
	cols := make([]string, 0, 2*len(scs))
	for _, sc := range scs {
		cols = append(cols, sc.Name+" ok%", sc.Name+" rec(m)")
	}
	runners := []struct {
		name string
		run  func(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration)
	}{
		{"chain", recoveryChain},
		{"dht", recoveryDHT},
		{"gossip", recoveryGossip},
		{"groupcomm", recoverySocial},
		{"storage", recoveryStorage},
		{"webapp", recoveryWebapp},
	}
	rows := make([]string, len(runners))
	for i, r := range runners {
		rows[i] = r.name
	}
	m := NewMatrix(rows, cols)
	for r, runner := range runners {
		for c, sc := range scs {
			ok, rec := runner.run(seed, sc, tiny)
			m.Vals[r][2*c] = ok * 100
			m.Vals[r][2*c+1] = rec.Minutes()
		}
	}
	return m
}

// recTracker samples a recovery invariant at a fixed cadence from the
// moment the scenario's last fault clears, and remembers the first sample
// at which it held.
type recTracker struct {
	at  time.Duration
	set bool
}

// trackRecovery schedules probe every interval from start+faultEnd to
// start+horizon. probe reports asynchronously through its done callback;
// the tracker records the (scheduled) offset of the first success.
func trackRecovery(nw *simnet.Network, start, faultEnd, horizon, interval time.Duration, probe func(done func(bool))) *recTracker {
	tr := &recTracker{}
	for t := faultEnd; t < horizon; t += interval {
		t := t
		nw.Schedule(start+t, func() {
			probe(func(ok bool) {
				if ok && !tr.set {
					tr.set, tr.at = true, t-faultEnd
				}
			})
		})
	}
	return tr
}

// recovery returns the measured time-to-recover, capped at the fault-free
// window when the invariant never held.
func (tr *recTracker) recovery(faultEnd, horizon time.Duration) time.Duration {
	if tr.set {
		return tr.at
	}
	return horizon - faultEnd
}

func probeInterval(sp recoverySpec) time.Duration { return sp.horizon / 20 }

// recoveryChain: miners must reconverge on one head. Success is the
// fraction of miners sharing the majority head after the run; the probe
// accepts a height spread of one block for in-flight propagation.
func recoveryChain(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 5)
	nw := simnet.New(seed)
	cfg := chain.Config{InitialDifficulty: 1 << 10, TargetSpacing: 10 * time.Second, Subsidy: 50}
	miners := newMinerNet(nw, sp.nodes, 100, cfg)
	eligible := make([]simnet.NodeID, len(miners))
	for i, m := range miners {
		eligible[i] = m.Node().ID()
	}
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.Apply(nw)
	for _, m := range miners {
		m.Start()
	}
	tr := trackRecovery(nw, 0, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) {
		lo, hi := miners[0].Chain().Height(), miners[0].Chain().Height()
		for _, m := range miners[1:] {
			if h := m.Chain().Height(); h < lo {
				lo = h
			} else if h > hi {
				hi = h
			}
		}
		done(hi-lo <= 1)
	})
	nw.Run(sp.horizon)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()
	counts := map[cryptoutil.Hash]int{}
	best := 0
	for _, m := range miners {
		h := m.Chain().HeadHash()
		counts[h]++
		if counts[h] > best {
			best = counts[h]
		}
	}
	return float64(best) / float64(len(miners)), tr.recovery(plan.End(), sp.horizon)
}

// recoveryDHT: published keys must stay findable. Success is the fraction
// of (reader, key) lookups that succeed after the run; the probe is one
// rotating lookup from the first non-anchor reader.
func recoveryDHT(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 12)
	nKeys := 6
	nw := simnet.New(seed)
	cfg := dht.Config{K: 4, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	peers := make([]*dht.Peer, sp.nodes)
	for i := range peers {
		peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, cfg)
	}
	for i := 1; i < len(peers); i++ {
		i := i
		nw.After(time.Duration(i)*200*time.Millisecond, func() {
			peers[i].Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.Run(time.Duration(len(peers)) * 400 * time.Millisecond)
	keys := make([]dht.Key, nKeys)
	for i := range keys {
		keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("x14-%d", i)))
		peers[0].Put(keys[i], []byte{byte(i)}, nil)
	}
	nw.Run(nw.Now() + time.Minute)

	eligible := make([]simnet.NodeID, 0, len(peers)-1)
	for _, p := range peers[1:] {
		eligible = append(eligible, p.Node().ID())
	}
	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	probeN := 0
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) {
		probeN++
		peers[1].Get(keys[probeN%nKeys], func(_ []byte, found bool) { done(found) })
	})
	nw.Run(start + sp.horizon)

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
	return float64(ok) / float64(total), tr.recovery(plan.End(), sp.horizon)
}

// recoveryGossip: every item published during the fault window must reach
// every member; anti-entropy is the repair path.
func recoveryGossip(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 10)
	nItems := 6
	nw := simnet.New(seed)
	members := make([]*gossip.Member, sp.nodes)
	ids := make([]simnet.NodeID, sp.nodes)
	for i := range members {
		node := nw.AddNode()
		ids[i] = node.ID()
		members[i] = gossip.NewMember(node, gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
	}
	for i, m := range members {
		peers := make([]simnet.NodeID, 0, sp.nodes-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	plan := sc.Build(seed, ids[1:], sp.horizon)
	plan.Apply(nw)
	items := make([]gossip.Item, nItems)
	published := 0
	for i := range items {
		data := fmt.Sprintf("x14-item-%d", i)
		items[i] = gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: data, Size: len(data)}
		it := items[i]
		nw.Schedule(time.Duration(i)*sp.horizon/(2*time.Duration(nItems)), func() {
			members[0].Publish(it)
			published++
		})
	}
	// The probe only demands items published so far, so workload completion
	// is not mistaken for slow recovery.
	allHave := func() bool {
		for _, m := range members {
			for _, it := range items[:published] {
				if !m.Has(it.ID) {
					return false
				}
			}
		}
		return true
	}
	tr := trackRecovery(nw, 0, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) { done(allHave()) })
	nw.Run(sp.horizon)

	have, total := 0, 0
	for _, m := range members {
		for _, it := range items {
			total++
			if m.Has(it.ID) {
				have++
			}
		}
	}
	return float64(have) / float64(total), tr.recovery(plan.End(), sp.horizon)
}

// recoverySocial: posts by the anchor author must eventually reach every
// friend via periodic sync.
func recoverySocial(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 8)
	nPosts := 5
	nw := simnet.New(seed)
	peers := make([]*groupcomm.SocialPeer, sp.nodes)
	for i := range peers {
		peers[i] = groupcomm.NewSocialPeer(nw.AddNode(), groupcomm.UserID(fmt.Sprintf("u%d", i)), 30*time.Second)
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.Befriend(q.User(), q.Node().ID())
			}
		}
	}
	eligible := make([]simnet.NodeID, 0, sp.nodes-1)
	for _, p := range peers[1:] {
		eligible = append(eligible, p.Node().ID())
	}
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.Apply(nw)
	published := 0
	for i := 0; i < nPosts; i++ {
		i := i
		nw.Schedule(time.Duration(i)*sp.horizon/(2*time.Duration(nPosts)), func() {
			peers[0].Publish("lobby", []byte(fmt.Sprintf("post %d", i)))
			published++
		})
	}
	author := peers[0].User()
	// Only demand posts published so far (see recoveryGossip).
	allHave := func() bool {
		for _, p := range peers[1:] {
			if len(p.PostsBy(author)) < published {
				return false
			}
		}
		return true
	}
	tr := trackRecovery(nw, 0, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) { done(allHave()) })
	nw.Run(sp.horizon)

	have, total := 0, 0
	for _, p := range peers[1:] {
		total += nPosts
		have += len(p.PostsBy(author))
	}
	return float64(have) / float64(total), tr.recovery(plan.End(), sp.horizon)
}

// recoveryStorage: an object uploaded before the faults must still pass a
// full audit afterwards, and the bytes must round-trip.
func recoveryStorage(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 6)
	nw := simnet.New(seed)
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
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
		data[i] = byte(i * 17)
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
		return 0, sp.horizon
	}
	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) {
		client.Audit(manifest, placement, 10*time.Second, func(r *storage.AuditReport) {
			done(r.Failed() == 0 && len(r.Results) > 0)
		})
	})
	nw.Run(start + sp.horizon)

	var report *storage.AuditReport
	client.Audit(manifest, placement, 10*time.Second, func(r *storage.AuditReport) { report = r })
	var got []byte
	client.Download(manifest, placement, func(b []byte, err error) {
		if err == nil {
			got = b
		}
	})
	nw.Run(nw.Now() + time.Minute)
	if report == nil || len(report.Results) == 0 || !bytes.Equal(got, data) {
		return 0, tr.recovery(plan.End(), sp.horizon)
	}
	return float64(report.Passed()) / float64(len(report.Results)), tr.recovery(plan.End(), sp.horizon)
}

// recoveryWebapp: a hostless site published before the faults must be
// fully visitable afterwards.
func recoveryWebapp(seed int64, sc fault.Scenario, tiny bool) (float64, time.Duration) {
	sp := spec(tiny, 6)
	nw := simnet.New(seed)
	tracker := webapp.NewTracker(nw.AddNode(), overload.Config{})
	authorNode := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dht.Config{})
	author := webapp.NewPeer(authorNode, authorDHT, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{})
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		return 0, sp.horizon
	}
	visitors := make([]*webapp.Peer, sp.nodes)
	eligible := make([]simnet.NodeID, sp.nodes)
	for i := range visitors {
		node := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		d.Bootstrap(authorDHT.Contact(), nil)
		visitors[i] = webapp.NewPeer(node, d, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{})
		eligible[i] = node.ID()
	}
	nw.Run(2 * time.Minute)
	files := map[string][]byte{
		"index.html": []byte("<html><body>x14</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	var site cryptoutil.Hash
	author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *webapp.Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	if site.IsZero() {
		return 0, sp.horizon
	}
	for _, p := range visitors[:2] {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

	start := nw.Now()
	plan := sc.Build(seed, eligible, sp.horizon)
	plan.ApplyAt(nw, start)
	tr := trackRecovery(nw, start, plan.End(), sp.horizon, probeInterval(sp), func(done func(bool)) {
		visitors[0].Visit(site, func(fs map[string][]byte, err error) {
			done(err == nil && len(fs) == len(files))
		})
	})
	nw.Run(start + sp.horizon)

	ok := 0
	for _, p := range visitors {
		good := false
		p.Visit(site, func(fs map[string][]byte, err error) { good = err == nil && len(fs) == len(files) })
		nw.Run(nw.Now() + time.Minute)
		if good {
			ok++
		}
	}
	return float64(ok) / float64(len(visitors)), tr.recovery(plan.End(), sp.horizon)
}

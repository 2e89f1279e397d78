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
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/storage"
	"repro/internal/webapp"
)

func scenarioNames(scs []fault.Scenario) []string {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
	}
	return names
}

// recoverySpec sizes one X14 world. Tiny halves the horizon and shrinks the
// worlds so the whole matrix stays test-suite fast.
func recoverySpec(tiny bool, fullNodes int) faultSpec {
	if tiny {
		return faultSpec{horizon: 10 * time.Minute, nodes: max(fullNodes/2, 3)}
	}
	return faultSpec{horizon: 20 * time.Minute, nodes: fullNodes}
}

// recoveryWorlds is the subsystem axis of X14: each row's world at its
// full-scale population.
var recoveryWorlds = []struct {
	name  string
	nodes int
	world func(env Env, sp faultSpec) faultWorld
}{
	{"chain", 5, chainRecoveryWorld},
	{"dht", 12, dhtRecoveryWorld},
	{"gossip", 10, gossipRecoveryWorld},
	{"groupcomm", 8, socialRecoveryWorld},
	{"storage", 6, storageRecoveryWorld},
	{"webapp", 6, webappRecoveryWorld},
}

// recoveryMatrix is experiment X14: every subsystem is driven through the
// canonical fault battery (internal/simnet/fault) and measured on two
// axes — how completely it recovers once faults clear (success %) and how
// long after the last fault the recovery invariant first holds again
// (recovery time). It quantifies §5.3: the hard problems of decentralized
// systems are not the happy path but churn, partitions, and garbage links,
// and a credible alternative to the feudal clouds has to self-heal from
// all of them without an operator. Rows are subsystems, columns alternate
// "<scenario> ok%" and "<scenario> rec(m)" so one Matrix carries both
// measures through AggregateSeeds.
func recoveryMatrix(env Env) Matrix {
	scs := fault.Scenarios()
	cols := make([]string, 0, 2*len(scs))
	for _, sc := range scs {
		cols = append(cols, sc.Name+" ok%", sc.Name+" rec(m)")
	}
	m := Matrix{Cols: cols}
	for _, w := range recoveryWorlds {
		sp := recoverySpec(env.Tiny, w.nodes)
		var row []float64
		for _, sc := range scs {
			cell := runFaultCell(env.Seed, sc, sp, w.world(env, sp))
			row = append(row, cell.success*100, cell.rec.Minutes())
		}
		m.add(w.name, row...)
	}
	return m
}

// chainRecoveryWorld: miners must reconverge on one head. Success is the
// fraction of miners sharing the majority head after the run; the
// invariant accepts a height spread of one block for in-flight propagation.
func chainRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nw := env.Net()
	cfg := chain.Config{InitialDifficulty: 1 << 10, Subsidy: 50}
	miners := newMinerNet(nw, sp.nodes, 100, cfg)
	return faultWorld{
		nw: nw, eligible: nodeIDs(miners),
		drive: func() {
			for _, m := range miners {
				m.Start()
			}
		},
		healthy: func(done func(bool)) {
			lo, hi := miners[0].Chain().Height(), miners[0].Chain().Height()
			for _, m := range miners[1:] {
				if h := m.Chain().Height(); h < lo {
					lo = h
				} else if h > hi {
					hi = h
				}
			}
			done(hi-lo <= 1)
		},
		score: func() float64 {
			for _, m := range miners {
				m.Stop()
			}
			nw.RunAll()
			counts := map[cryptoutil.Hash]int{}
			best := 0
			for _, m := range miners {
				h := m.Chain().HeadHash()
				counts[h]++
				best = max(best, counts[h])
			}
			return float64(best) / float64(len(miners))
		},
	}
}

// dhtRecoveryWorld: published keys must stay findable. Success is the
// fraction of (reader, key) lookups that succeed after the run; the
// invariant is one rotating lookup from the first non-anchor reader.
func dhtRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nw := env.Net()
	cfg := dht.Config{K: 4, RequestTimeout: 3 * time.Second, RepublishInterval: 5 * time.Minute}
	peers := growDHT(nw, sp.nodes, 200*time.Millisecond, sameDHT(cfg))
	nw.Run(time.Duration(len(peers)) * 400 * time.Millisecond)
	keys := putKeys(peers[0], 6, "x14-%d")
	nw.Run(nw.Now() + time.Minute)

	sampleN := 0
	return faultWorld{
		nw: nw, eligible: nodeIDs(peers[1:]),
		healthy: func(done func(bool)) {
			sampleN++
			peers[1].Get(keys[sampleN%len(keys)], func(_ []byte, found bool) { done(found) })
		},
		score: func() float64 {
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
		},
	}
}

// gossipRecoveryWorld: every item published during the fault window must
// reach every member; anti-entropy is the repair path.
func gossipRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nItems := 6
	nw := env.Net()
	members := make([]*gossip.Member, sp.nodes)
	for i := range members {
		members[i] = gossip.NewMember(nw.AddNode(), gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
	}
	ids := nodeIDs(members)
	for i, m := range members {
		m.SetPeers(othersOf(ids, i))
	}
	items := make([]gossip.Item, nItems)
	published := 0
	// have counts the (member, item) pairs delivered among the first n items.
	have := func(n int) int {
		got := 0
		for _, m := range members {
			for _, it := range items[:n] {
				if m.Has(it.ID) {
					got++
				}
			}
		}
		return got
	}
	return faultWorld{
		nw: nw, eligible: ids[1:],
		drive: func() {
			for i := range items {
				data := fmt.Sprintf("x14-item-%d", i)
				items[i] = gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: data, Size: len(data)}
				nw.Schedule(time.Duration(i)*sp.horizon/(2*time.Duration(nItems)), func() {
					members[0].Publish(items[i])
					published++
				})
			}
		},
		// The invariant only demands items published so far, so workload
		// completion is not mistaken for slow recovery.
		healthy: func(done func(bool)) { done(have(published) == published*len(members)) },
		score:   func() float64 { return float64(have(nItems)) / float64(nItems*len(members)) },
	}
}

// socialRecoveryWorld: posts by the anchor author must eventually reach
// every friend via periodic sync.
func socialRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nPosts := 5
	nw := env.Net()
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
	author, friends := peers[0], peers[1:]
	published := 0
	return faultWorld{
		nw: nw, eligible: nodeIDs(friends),
		drive: func() {
			for i := 0; i < nPosts; i++ {
				nw.Schedule(time.Duration(i)*sp.horizon/(2*time.Duration(nPosts)), func() {
					author.Publish("lobby", []byte(fmt.Sprintf("post %d", i)))
					published++
				})
			}
		},
		// Only demand posts published so far (see gossipRecoveryWorld).
		healthy: func(done func(bool)) {
			for _, p := range friends {
				if len(p.PostsBy(author.User())) < published {
					done(false)
					return
				}
			}
			done(true)
		},
		score: func() float64 {
			have := 0
			for _, p := range friends {
				have += len(p.PostsBy(author.User()))
			}
			return float64(have) / float64(nPosts*len(friends))
		},
	}
}

// storageRecoveryWorld: an object uploaded before the faults must still
// pass a full audit afterwards, and the bytes must round-trip.
func storageRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nw := env.Net()
	fleet := newStorageFleet(nw, sp.nodes, 30*time.Second, resil.Config{}, storage.ProviderConfig{Capacity: 1 << 20})
	obj := fleet.uploadPattern(nw, 17)
	if obj.m == nil {
		return faultWorld{}
	}
	return faultWorld{
		nw: nw, eligible: nodeIDs(fleet.provs),
		healthy: func(done func(bool)) {
			fleet.client.Audit(obj.m, obj.pl, 10*time.Second, func(r *storage.AuditReport) {
				done(r.Failed() == 0 && len(r.Results) > 0)
			})
		},
		score: func() float64 {
			var report *storage.AuditReport
			fleet.client.Audit(obj.m, obj.pl, 10*time.Second, func(r *storage.AuditReport) { report = r })
			var got []byte
			fleet.client.Download(obj.m, obj.pl, func(b []byte, err error) {
				if err == nil {
					got = b
				}
			})
			nw.Run(nw.Now() + time.Minute)
			if report == nil || len(report.Results) == 0 || !bytes.Equal(got, obj.data) {
				return 0
			}
			return float64(report.Passed()) / float64(len(report.Results))
		},
	}
}

// webappRecoveryWorld: a hostless site published before the faults must be
// fully visitable afterwards.
func webappRecoveryWorld(env Env, sp faultSpec) faultWorld {
	nw := env.Net()
	home := simnet.HomeBroadbandProfile()
	web := newWebSwarm(nw, home, 30*time.Second)
	owner, err := cryptoutil.GenerateKeyPair(nw.Rand())
	if err != nil {
		return faultWorld{}
	}
	visitors := web.join(sp.nodes, home, dht.Config{}, webapp.PeerConfig{}, 0)
	nw.Run(2 * time.Minute)
	files := map[string][]byte{
		"index.html": []byte("<html><body>x14</body></html>"),
		"app.js":     make([]byte, 2048),
	}
	site := web.publish(owner, files)
	if site.IsZero() {
		return faultWorld{}
	}
	for _, p := range visitors[:2] {
		p.Visit(site, func(map[string][]byte, error) {})
	}
	nw.Run(nw.Now() + time.Minute)

	visit := func(p *webapp.Peer, done func(bool)) {
		p.Visit(site, func(fs map[string][]byte, err error) { done(err == nil && len(fs) == len(files)) })
	}
	return faultWorld{
		nw: nw, eligible: nodeIDs(visitors),
		healthy: func(done func(bool)) { visit(visitors[0], done) },
		score: func() float64 {
			ok := 0
			for _, p := range visitors {
				good := false
				visit(p, func(b bool) { good = b })
				nw.Run(nw.Now() + time.Minute)
				if good {
					ok++
				}
			}
			return float64(ok) / float64(len(visitors))
		},
	}
}

package groupcomm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
)

// socialConformanceRun drives a fully-befriended social mesh through one
// fault scenario while the anchor keeps posting, and returns the fraction
// of (peer, post) pairs delivered by the end. Periodic friend-sync is the
// repair path: peers that were down or cut off must pull missed posts.
func socialConformanceRun(t testing.TB, seed int64, sc fault.Scenario) float64 {
	t.Helper()
	const (
		nPeers  = 10
		nPosts  = 8
		horizon = 30 * time.Minute
	)
	nw := simnet.New(seed)
	peers := make([]*SocialPeer, nPeers)
	for i := range peers {
		peers[i] = NewSocialPeer(nw.AddNode(), userName(i), 30*time.Second)
	}
	for i, p := range peers {
		for j, q := range peers {
			if i != j {
				p.Befriend(q.User(), q.Node().ID())
			}
		}
	}

	// Peer 0 is the anchor author; the rest are fault-eligible.
	eligible := make([]simnet.NodeID, 0, nPeers-1)
	for _, p := range peers[1:] {
		eligible = append(eligible, p.Node().ID())
	}
	sc.Build(seed, eligible, horizon).ApplyAt(nw, 0)

	for i := 0; i < nPosts; i++ {
		i := i
		nw.Schedule(time.Duration(i)*horizon/(2*nPosts), func() {
			peers[0].Publish("lobby", []byte(fmt.Sprintf("post %d", i)))
		})
	}
	nw.Run(horizon)

	author := peers[0].User()
	have, total := 0, 0
	for _, p := range peers[1:] {
		total += nPosts
		have += len(p.PostsBy(author))
	}
	return float64(have) / float64(total)
}

// TestSocialRecoveryConformance: posts published while friends were down,
// partitioned, or on links that garble messages (which the network discards
// at delivery) must all be delivered by the end of the run — eventual
// delivery via sync is the invariant.
func TestSocialRecoveryConformance(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if got := socialConformanceRun(t, 404, sc); got < 1.0 {
				t.Errorf("post delivery ratio %.3f after recovery window, want 1.0", got)
			}
		})
	}
}

// TestSocialConformanceDeterministic: the delivery ratio is a pure function
// of the seed.
func TestSocialConformanceDeterministic(t *testing.T) {
	sc := fault.FlashPartition()
	if a, b := socialConformanceRun(t, 99, sc), socialConformanceRun(t, 99, sc); a != b {
		t.Errorf("same seed gave different ratios: %v vs %v", a, b)
	}
}

// replMidFaultRun measures federation availability during the fault
// window: a resilient failover client fetches the room timeline at a
// fixed cadence while every replica server is fault-eligible, and a probe
// counts as available iff the fetch returns the pre-fault posts within
// the 8s SLA.
func replMidFaultRun(t testing.TB, seed int64, sc fault.Scenario, rcfg resil.Config) float64 {
	t.Helper()
	const (
		nServers = 6
		nProbes  = 8
		horizon  = 30 * time.Minute
		sla      = 8 * time.Second
	)
	nw := simnet.New(seed)
	servers := make([]*ReplServer, nServers)
	ids := make([]simnet.NodeID, nServers)
	for i := range servers {
		servers[i] = NewReplServer(nw.AddNode(), nil,
			gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
		ids[i] = servers[i].Node().ID()
	}
	for i, s := range servers {
		peers := make([]simnet.NodeID, 0, nServers-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		s.SetPeers(peers)
	}
	client := NewReplClient(nw.AddNode(), ids[0], ids[1:], "alice", 10*time.Second, rcfg)
	for i := 0; i < 4; i++ {
		i := i
		nw.After(time.Duration(i+1)*10*time.Second, func() {
			client.Post("lobby", []byte(fmt.Sprintf("pre-fault %d", i)), func(bool) {})
		})
	}
	nw.Run(2 * time.Minute)

	start := nw.Now()
	plan := sc.Build(seed, ids, horizon)
	plan.ApplyAt(nw, start)
	ws, we := plan.Start(), plan.End()
	if we <= ws { // clean plan: probe the whole horizon
		ws, we = 0, horizon
	}

	ok, total := 0, 0
	for i := 0; i < nProbes; i++ {
		total++
		nw.Schedule(start+ws+time.Duration(i)*(we-ws)/nProbes, func() {
			launched := nw.Now()
			client.Fetch("lobby", func(posts []Post, good bool) {
				if good && len(posts) > 0 && nw.Now()-launched <= sla {
					ok++
				}
			})
		})
	}
	nw.Run(start + horizon)
	return float64(ok) / float64(total)
}

// TestReplMidFaultAvailability: with the resilience layer on, timeline
// reads must keep succeeding at the per-scenario floor while the replica
// fleet is actively under fault — server-list failover and transport
// retries together are the mechanism under test.
func TestReplMidFaultAvailability(t *testing.T) {
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
			got := replMidFaultRun(t, 409, sc, resil.Defaults())
			if floor := floors[sc.Name]; got < floor {
				t.Errorf("mid-fault fetch availability %.2f below floor %.2f", got, floor)
			}
			t.Logf("mid-fault availability %.2f", got)
		})
	}
}

package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/gossip"
	"repro/internal/groupcomm"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// commSize sizes X3: servers (one user each) and the failed fractions
// swept. commSizes is full scale, then tiny.
type commSize struct {
	servers int
	fails   []float64
}

var commSizes = [2]commSize{{10, []float64{0, 0.1, 0.2, 0.3, 0.5}}, {3, []float64{0, 0.5}}}

// commAvailabilityMatrix is experiment X3: with U users spread over S
// servers, kill a fraction f of the servers and measure deliverability —
// the share of ordered (author, reader) pairs where the reader obtains the
// author's fresh post. One seed gives one figure per (model, fraction)
// cell. It quantifies §3.2's availability claims:
//
//   - centralized: one platform, all-or-nothing;
//   - federated-home (OStatus): "bottlenecked by single servers that can
//     cause entire instances to be inaccessible if they fail" →
//     deliverability ≈ (1-f)²;
//   - federated-replicated (Matrix): replication + read failover →
//     deliverability ≈ (1-f) (posting still needs the author's home);
//   - social-p2p: no servers; the peers are the users, so the same f is
//     applied to them directly → surviving pairs still deliver.
func commAvailabilityMatrix(seed int64, s commSize) Matrix {
	models := []struct {
		name string
		run  func(seed int64, servers int, f float64) float64
	}{
		{"centralized", centralizedDeliverability},
		{"federated-home", fedHomeDeliverability},
		{"federated-replicated", fedReplDeliverability},
		{"social-p2p", socialP2PDeliverability},
	}
	mx := Matrix{Cols: labels("f=%.0f%%", 100, s.fails)}
	for _, m := range models {
		row := make([]float64, len(s.fails))
		for c, f := range s.fails {
			row[c] = m.run(seed, s.servers, f)
		}
		mx.add(m.name, row...)
	}
	return mx
}

func killCount(servers int, f float64) int {
	return int(math.Round(f * float64(servers)))
}

// centralizedDeliverability: U users on one platform server.
func centralizedDeliverability(seed int64, users int, f float64) float64 {
	nw := simnet.New(seed)
	srv := groupcomm.NewCentralServer(nw.AddNode(), nil)
	clients := make([]*groupcomm.CentralClient, users)
	for i := range clients {
		clients[i] = groupcomm.NewCentralClient(nw.AddNode(), srv.Node().ID(),
			groupcomm.UserID(fmt.Sprintf("u%d", i)), 5*time.Second)
	}
	if f > 0 { // any failure fraction kills the single platform
		srv.Node().Crash()
	}
	for _, c := range clients {
		c.Post("room", []byte("post by "+string(c.User())), func(bool) {})
	}
	nw.Run(nw.Now() + time.Minute)
	return readDeliverability(nw, users, time.Minute, func(i int, done func([]groupcomm.Post, bool)) {
		clients[i].Fetch("room", done)
	})
}

func fedHomeDeliverability(seed int64, servers int, f float64) float64 {
	nw := simnet.New(seed)
	insts := make([]*groupcomm.FedInstance, servers)
	for i := range insts {
		insts[i] = groupcomm.NewFedInstance(nw.AddNode(), fmt.Sprintf("inst%d", i), nil)
	}
	for i, a := range insts {
		for j, b := range insts {
			if i != j {
				a.AddPeer(b.Name(), b.Node().ID())
			}
		}
	}
	clients := make([]*groupcomm.FedClient, servers)
	users := make([]groupcomm.UserID, servers)
	for i := range clients {
		users[i] = groupcomm.UserID(fmt.Sprintf("u%d", i))
		insts[i].AddUser(users[i])
		clients[i] = groupcomm.NewFedClient(nw.AddNode(), insts[i].Node().ID(), users[i], 5*time.Second)
	}
	for i, inst := range insts {
		for j := range insts {
			inst.Follow(users[i], users[j], fmt.Sprintf("inst%d", j))
		}
	}
	nw.Run(nw.Now() + time.Minute) // settle follows

	for k := 0; k < killCount(servers, f); k++ {
		insts[k].Node().Crash()
	}
	for _, c := range clients {
		c.Post("room", []byte("hello"), func(bool) {})
	}
	nw.Run(nw.Now() + time.Minute)

	return readDeliverability(nw, servers, time.Minute, func(i int, done func([]groupcomm.Post, bool)) {
		clients[i].Read(done)
	})
}

func fedReplDeliverability(seed int64, servers int, f float64) float64 {
	nw := simnet.New(seed)
	srvs := make([]*groupcomm.ReplServer, servers)
	for i := range srvs {
		srvs[i] = groupcomm.NewReplServer(nw.AddNode(), fmt.Sprintf("hs%d", i), nil,
			gossip.Config{Fanout: 3, AntiEntropyInterval: 15 * time.Second})
	}
	ids := nodeIDs(srvs)
	for i, s := range srvs {
		s.SetPeers(othersOf(ids, i))
	}
	clients := make([]*groupcomm.ReplClient, servers)
	for i := range clients {
		clients[i] = groupcomm.NewReplClient(nw.AddNode(), ids[i], ids, groupcomm.UserID(fmt.Sprintf("u%d", i)), 5*time.Second, resil.Config{})
	}
	for k := 0; k < killCount(servers, f); k++ {
		srvs[k].Node().Crash()
	}
	for _, c := range clients {
		c.Post("room", []byte("hello"), func(bool) {})
	}
	nw.Run(nw.Now() + 2*time.Minute) // replicate

	return readDeliverability(nw, servers, 2*time.Minute, func(i int, done func([]groupcomm.Post, bool)) {
		clients[i].Fetch("room", done)
	})
}

// readDeliverability has each of n readers fetch in turn, running the
// network for settle after each fetch, and returns the share of ordered
// (author, reader) pairs, author ≠ reader, in which the reader got the
// post of user u<author>.
func readDeliverability(nw *simnet.Network, n int, settle time.Duration, fetch func(reader int, done func([]groupcomm.Post, bool))) float64 {
	delivered, pairs := 0, 0
	for ri := 0; ri < n; ri++ {
		var got []groupcomm.Post
		fetch(ri, func(ps []groupcomm.Post, _ bool) { got = ps })
		nw.Run(nw.Now() + settle)
		seen := map[groupcomm.UserID]bool{}
		for _, p := range got {
			seen[p.Author] = true
		}
		for ai := 0; ai < n; ai++ {
			if ai == ri {
				continue
			}
			pairs++
			if seen[groupcomm.UserID(fmt.Sprintf("u%d", ai))] {
				delivered++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(delivered) / float64(pairs)
}

// socialP2PDeliverability: the users themselves are the infrastructure, so
// f is applied to user nodes. All pairs are mutual friends.
func socialP2PDeliverability(seed int64, users int, f float64) float64 {
	nw := simnet.New(seed)
	peers := make([]*groupcomm.SocialPeer, users)
	for i := range peers {
		peers[i] = groupcomm.NewSocialPeer(nw.AddNode(), groupcomm.UserID(fmt.Sprintf("u%d", i)), 15*time.Second)
	}
	for i, a := range peers {
		for j, b := range peers {
			if i != j {
				a.Befriend(b.User(), b.Node().ID())
			}
		}
	}
	for k := 0; k < killCount(users, f); k++ {
		peers[k].Node().Crash()
	}
	posts := make(map[int]groupcomm.Post, users)
	for i, p := range peers {
		if p.Node().Up() {
			posts[i] = p.Publish("room", []byte("hello"))
		}
	}
	nw.Run(nw.Now() + 2*time.Minute)

	delivered, pairs := 0, 0
	for ai := range peers {
		for ri, reader := range peers {
			if ai == ri {
				continue
			}
			pairs++ // dead authors/readers count as failed pairs
			post, authored := posts[ai]
			if authored && reader.Node().Up() && reader.Has(post.ID) {
				delivered++
			}
		}
	}
	return float64(delivered) / float64(pairs)
}

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

// CommAvailability is experiment X3: with U users spread over S servers,
// kill a fraction f of the servers and measure deliverability — the share
// of ordered (author, reader) pairs where the reader obtains the author's
// fresh post. It quantifies §3.2's availability claims:
//
//   - centralized: one platform, all-or-nothing;
//   - federated-home (OStatus): "bottlenecked by single servers that can
//     cause entire instances to be inaccessible if they fail" →
//     deliverability ≈ (1-f)²;
//   - federated-replicated (Matrix): replication + read failover →
//     deliverability ≈ (1-f) (posting still needs the author's home);
//   - social-p2p: no servers; the peers are the users, so the same f is
//     applied to them directly → surviving pairs still deliver.
func CommAvailability(seed int64, servers int, failFractions []float64) *Table {
	m := commAvailabilityMatrix(seed, servers, failFractions)
	t := &Table{
		Title:   fmt.Sprintf("X3: deliverability vs fraction of failed servers (S=%d, 1 user/server)", servers),
		Headers: append([]string{"Model"}, m.Cols...),
	}
	for r, name := range m.Rows {
		row := []any{name}
		for c := range m.Cols {
			row = append(row, fmt.Sprintf("%.2f", m.Vals[r][c]))
		}
		t.Add(row...)
	}
	return t
}

// commAvailabilityMatrix is the numeric core of X3: one seed, one
// deliverability figure per (model, fail-fraction) cell.
func commAvailabilityMatrix(seed int64, servers int, failFractions []float64) Matrix {
	models := []struct {
		name string
		run  func(seed int64, servers int, f float64) float64
	}{
		{"centralized", centralizedDeliverability},
		{"federated-home", fedHomeDeliverability},
		{"federated-replicated", fedReplDeliverability},
		{"social-p2p", socialP2PDeliverability},
	}
	cols := make([]string, len(failFractions))
	for i, f := range failFractions {
		cols[i] = fmt.Sprintf("f=%.0f%%", f*100)
	}
	rows := make([]string, len(models))
	for i, m := range models {
		rows[i] = m.name
	}
	mx := NewMatrix(rows, cols)
	for r, m := range models {
		for c, f := range failFractions {
			mx.Vals[r][c] = m.run(seed, servers, f)
		}
	}
	return mx
}

// CommAvailabilityMulti is X3 aggregated over a batch of seeds on `workers`
// parallel trial runners (0 = GOMAXPROCS).
func CommAvailabilityMulti(seeds []int64, workers, servers int, failFractions []float64) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix {
		return commAvailabilityMatrix(seed, servers, failFractions)
	})
	return agg.Table(
		fmt.Sprintf("X3: deliverability vs fraction of failed servers (S=%d, 1 user/server)", servers),
		"Model", "%.2f")
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
	delivered, pairs := 0, 0
	for ri, reader := range clients {
		var got []groupcomm.Post
		reader.Fetch("room", func(ps []groupcomm.Post, ok bool) { got = ps })
		nw.Run(nw.Now() + time.Minute)
		seen := map[groupcomm.UserID]bool{}
		for _, p := range got {
			seen[p.Author] = true
		}
		for ai := range clients {
			if ai == ri {
				continue
			}
			pairs++
			if seen[clients[ai].User()] {
				delivered++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(delivered) / float64(pairs)
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

	delivered, pairs := 0, 0
	for ri, reader := range clients {
		var got []groupcomm.Post
		reader.Read(func(ps []groupcomm.Post, ok bool) { got = ps })
		nw.Run(nw.Now() + time.Minute)
		seen := map[groupcomm.UserID]bool{}
		for _, p := range got {
			seen[p.Author] = true
		}
		for ai := range clients {
			if ai == ri {
				continue
			}
			pairs++
			if seen[users[ai]] {
				delivered++
			}
		}
	}
	return float64(delivered) / float64(pairs)
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

	delivered, pairs := 0, 0
	for ri, reader := range clients {
		var got []groupcomm.Post
		reader.Fetch("room", func(ps []groupcomm.Post, ok bool) { got = ps })
		nw.Run(nw.Now() + 2*time.Minute)
		seen := map[groupcomm.UserID]bool{}
		for _, p := range got {
			seen[p.Author] = true
		}
		for ai := range clients {
			if ai == ri {
				continue
			}
			pairs++
			if seen[groupcomm.UserID(fmt.Sprintf("u%d", ai))] {
				delivered++
			}
		}
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

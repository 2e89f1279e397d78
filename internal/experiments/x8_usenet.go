package experiments

import (
	"fmt"
	"time"

	"repro/internal/groupcomm"
	"repro/internal/simnet"
)

// usenetSize sizes X8: the network sizes swept, and each author's posts
// and post size in bytes. usenetSizes is full scale, then tiny.
type usenetSize struct {
	servers      []int
	posts, bytes int
}

var usenetSizes = [2]usenetSize{{[]int{5, 10, 20, 40}, 20, 512}, {[]int{3}, 4, 128}}

// usenetMatrix is experiment X8: it quantifies §3.2's "Usenet eventually
// collapsed under its own traffic load." Each of S servers hosts one
// author who posts P articles of B bytes. Under Usenet's full flooding,
// every server stores every article, so per-server storage grows linearly
// with network size; under the federated-home model each instance stores
// only what its users follow (here: a fixed 4 remote authors), so
// per-server cost stays flat as the network grows. The centralized column
// shows the aggregation extreme: one operator bears everything. One seed
// gives the mean stored bytes per server, per network size and model.
func usenetMatrix(seed int64, s usenetSize) Matrix {
	m := Matrix{Cols: []string{"usenet (full flood)", "federated-home (followed only)", "centralized (one operator)"}}
	for _, n := range s.servers {
		usenet := usenetPerServerBytes(seed, n, s.posts, s.bytes)
		fed := fedHomePerServerBytes(seed, n, s.posts, s.bytes)
		m.add(fmt.Sprint(n), float64(usenet), float64(fed), float64(n*s.posts*(s.bytes+64))) // one operator stores all
	}
	return m
}

// usenetTable renders X8 with every cell as a byte count.
func usenetTable(seed int64, s usenetSize) *Table {
	m := usenetMatrix(seed, s)
	t := &Table{Headers: append([]string{"Servers"}, m.Cols...)}
	for r, v := range m.Vals {
		t.Add(m.Rows[r], byteCount(int64(v[0])), byteCount(int64(v[1])), byteCount(int64(v[2])))
	}
	return t
}

func byteCount(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// usenetPerServerBytes returns the mean per-server stored bytes after all
// authors post.
func usenetPerServerBytes(seed int64, servers, posts, postBytes int) int64 {
	nw := simnet.New(seed)
	srvs := make([]*groupcomm.UsenetServer, servers)
	for i := range srvs {
		srvs[i] = groupcomm.NewUsenetServer(nw.AddNode(), fmt.Sprintf("news%d", i))
	}
	ids := nodeIDs(srvs)
	for i, s := range srvs {
		s.SetPeers(othersOf(ids, i))
	}
	for i, s := range srvs {
		for p := 0; p < posts; p++ {
			body := make([]byte, postBytes)
			copy(body, fmt.Sprintf("article %d-%d", i, p))
			s.PostLocal("alt.decentralization", groupcomm.UserID(fmt.Sprintf("u%d", i)), body)
		}
	}
	nw.Run(nw.Now() + time.Hour)
	var total int64
	for _, s := range srvs {
		total += s.BytesStored
	}
	return total / int64(servers)
}

// fedHomePerServerBytes returns the mean per-instance stored bytes in the
// federated-home model where each user follows 4 remote authors.
func fedHomePerServerBytes(seed int64, servers, posts, postBytes int) int64 {
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
	for i := range insts {
		u := groupcomm.UserID(fmt.Sprintf("u%d", i))
		insts[i].AddUser(u)
		clients[i] = groupcomm.NewFedClient(nw.AddNode(), insts[i].Node().ID(), u, 10*time.Second)
		// Follow self plus 4 remote authors (wrapping).
		insts[i].Follow(u, u, insts[i].Name())
		for k := 1; k <= 4 && k < servers; k++ {
			j := (i + k) % servers
			insts[i].Follow(u, groupcomm.UserID(fmt.Sprintf("u%d", j)), fmt.Sprintf("inst%d", j))
		}
	}
	nw.Run(nw.Now() + time.Minute) // settle follows
	for i := range clients {
		for p := 0; p < posts; p++ {
			body := make([]byte, postBytes)
			copy(body, fmt.Sprintf("article %d-%d", i, p))
			clients[i].Post("alt.decentralization", body, func(bool) {})
		}
	}
	nw.Run(nw.Now() + time.Hour)
	var total int64
	for _, inst := range insts {
		total += inst.StoredBytes()
	}
	return total / int64(servers)
}

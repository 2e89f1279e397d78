package groupcomm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

func usenetMesh(t *testing.T, seed int64, n int) (*simnet.Network, []*UsenetServer) {
	t.Helper()
	nw := simnet.New(seed)
	srvs := make([]*UsenetServer, n)
	ids := make([]simnet.NodeID, n)
	for i := range srvs {
		srvs[i] = NewUsenetServer(nw.AddNode(), fmt.Sprintf("news%d", i))
		ids[i] = srvs[i].Node().ID()
	}
	for i, s := range srvs {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		s.SetPeers(peers)
	}
	return nw, srvs
}

func TestUsenetFullReplication(t *testing.T) {
	nw, srvs := usenetMesh(t, 1, 6)
	post := srvs[0].PostLocal("comp.misc", "alice", []byte("hello usenet"))
	nw.Run(time.Minute)
	for i, s := range srvs {
		if _, ok := s.articles[post.ID]; !ok {
			t.Errorf("server %d missing the article (flooding broken)", i)
		}
		if len(s.articles) != 1 {
			t.Errorf("server %d has %d articles", i, len(s.articles))
		}
	}
	// Any-server read works.
	if got := srvs[5].Group("comp.misc"); len(got) != 1 || got[0].Author != "alice" {
		t.Error("remote read failed")
	}
	if got := srvs[5].Group("other.group"); len(got) != 0 {
		t.Error("group filter leaked")
	}
}

func TestUsenetDedupAndRelayAccounting(t *testing.T) {
	nw, srvs := usenetMesh(t, 2, 4)
	post := srvs[0].PostLocal("g", "a", []byte("once"))
	nw.Run(time.Minute)
	// Duplicate reinjection must not double-store.
	srvs[1].accept(post, -1)
	if len(srvs[1].articles) != 1 {
		t.Error("duplicate stored twice")
	}
	// Everyone stored exactly the wire size once.
	for i, s := range srvs {
		if s.BytesStored != int64(post.WireSize()) {
			t.Errorf("server %d stored %d bytes, want %d", i, s.BytesStored, post.WireSize())
		}
	}
	// The origin relayed to all 3 peers; receivers relay to everyone but
	// the sender (dedup suppresses the rest at delivery).
	if srvs[0].BytesRelayed != int64(3*post.WireSize()) {
		t.Errorf("origin relayed %d bytes", srvs[0].BytesRelayed)
	}
}

// TestUsenetCostScalesWithGlobalVolume pins the §3.2 collapse mechanism:
// per-server storage grows with total network activity even though each
// server's own users did nothing.
func TestUsenetCostScalesWithGlobalVolume(t *testing.T) {
	perServer := func(n int) int64 {
		nw, srvs := usenetMesh(t, 3, n)
		for i, s := range srvs {
			s.PostLocal("g", UserID(fmt.Sprintf("u%d", i)), []byte(fmt.Sprintf("unique body %d", i)))
		}
		nw.Run(time.Minute)
		return srvs[0].BytesStored // the idle observer pays too
	}
	small, large := perServer(4), perServer(16)
	if large < 3*small {
		t.Errorf("per-server cost should scale ~linearly with network size: %d vs %d", small, large)
	}
}

func TestUsenetPartitionedServerMissesTraffic(t *testing.T) {
	nw, srvs := usenetMesh(t, 4, 3)
	srvs[2].Node().Crash()
	post := srvs[0].PostLocal("g", "a", []byte("gone"))
	nw.Run(time.Minute)
	srvs[2].Node().Restart()
	nw.Run(time.Minute)
	if _, ok := srvs[2].articles[post.ID]; ok {
		t.Error("dead server should have missed the flood (no NNTP backfill modelled)")
	}
}

// Group returns the stored articles of one newsgroup, any-server read —
// the upside of full replication.
func (s *UsenetServer) Group(group string) []Post {
	var out []Post
	for _, p := range s.articles {
		if p.Room == group {
			out = append(out, p)
		}
	}
	return out
}

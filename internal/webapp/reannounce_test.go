package webapp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// TestReannounceInSiteOrder: a restarted peer re-announces its sites in
// sorted order, so each send's call id and link draws bind to the same site
// on every run. The link has a fixed latency and no loss, so the tracker
// receives each burst in send order.
func TestReannounceInSiteOrder(t *testing.T) {
	const sites, restarts = 12, 20
	nw := simnet.New(31)
	trackerNode, peerNode := nw.AddNode(), nw.AddNode()
	for _, n := range []*simnet.Node{trackerNode, peerNode} {
		n.SetProfile(simnet.LinkProfile{Latency: 5 * time.Millisecond})
	}
	var got []cryptoutil.Hash
	simnet.NewRPCNode(trackerNode).Serve(methodAnnounce, func(_ simnet.NodeID, req any) (any, int) {
		got = append(got, req.(announceReq).Site)
		return true, 8
	})
	p := NewPeer(peerNode, nil, trackerNode.ID(), time.Second, PeerConfig{})
	for i := 0; i < sites; i++ {
		p.adopt(SignManifest(key(t, int64(100+i)), 1, sampleFiles(), cryptoutil.Hash{}))
	}

	for r := 0; r < restarts; r++ {
		got = got[:0]
		peerNode.Crash()
		peerNode.Restart()
		nw.Run(nw.Now() + time.Second)
		if len(got) != sites {
			t.Fatalf("restart %d: tracker saw %d announces, want %d", r, len(got), sites)
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1][:], got[i][:]) >= 0 {
				t.Fatalf("restart %d: announce %d (%s) arrived after %s, want sorted site order", r, i, got[i].Short(), got[i-1].Short())
			}
		}
	}
}

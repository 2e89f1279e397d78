//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// given, so a pooled reply is sometimes allocated afresh; these gates only
// hold in normal builds.

package dht

import "testing"

// TestAllocDHTServeMiss: serving a find_value for a key the peer does not
// hold — observe the asker, select the K closest into a reply — allocates
// nothing once the asker is known and the reply pool is warm. The test
// releases each reply as a lookup would.
func TestAllocDHTServeMiss(t *testing.T) {
	_, peers := buildNetwork(t, 43, 40, Config{K: 8})
	p := peers[7]
	asker := p.rt.closest(key("asker"), 1)[0]
	var req any = &findNodeReq{From: asker, Target: key("never stored")}
	serve := func() {
		resp, _ := p.onFindValue(asker.Addr, req)
		r := resp.(*findResp)
		if r.Found || len(r.Contacts) != 8 {
			t.Fatalf("miss served found=%v with %d contacts", r.Found, len(r.Contacts))
		}
		r.release()
	}
	for i := 0; i < 10; i++ {
		serve()
	}
	if avg := testing.AllocsPerRun(1000, serve); avg != 0 {
		t.Errorf("find_value miss allocates %.2f/op in steady state, want 0", avg)
	}
}

//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// given, so the pooled fetches, resil ops and RPC envelopes are sometimes
// allocated afresh; this gate only holds in normal builds.

package replic

import (
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/simnet"
)

// TestAllocReplicGet pins a steady-state replicated Get, with resil,
// overload and replic all enabled, at one allocation: the boxed object
// key, which is a request and so may reach a holder after the fetch is
// recycled. The fetch, the resil ops and the directory's answer come from
// their pools, and the holder answers with the object's pre-built reply.
func TestAllocReplicGet(t *testing.T) {
	const budget = 1.0
	cfg := testCfg()
	cfg.Resilience.Enabled = true
	cfg.Resilience.Classify = overload.Classify
	cfg.Overload = overload.Config{Enabled: true}
	nw := simnet.New(3)
	dirNode := nw.AddNode()
	dir := NewDirectoryWith(dirNode, cfg.FloorK, cfg.Overload)
	var provs []*Provider
	for i := 0; i < 2; i++ {
		// Providers never Start: the gate measures the request path, not
		// maintenance rounds.
		provs = append(provs, NewProvider(nw.AddNode(), cfg, dirNode.ID(), 1, nil))
	}
	client := NewClient(nw.AddNode(), cfg, dirNode.ID(), 0, nil, nil)
	obj := h(7)
	provs[0].Put(obj, make([]byte, 1024), true)
	provs[1].Put(obj, make([]byte, 1024), false)
	nw.RunAll()
	if n := dir.NumHolders(obj); n != 2 {
		t.Fatalf("directory lists %d holders, want 2", n)
	}

	ok := 0
	done := func(data []byte, err error) {
		if err == nil && len(data) == 1024 {
			ok++
		}
	}
	get := func() {
		client.Get(obj, 5*time.Second, done)
		nw.RunAll()
	}
	for i := 0; i < 100; i++ {
		get()
	}
	if ok != 100 {
		t.Fatalf("%d of 100 warm-up Gets succeeded", ok)
	}
	avg := testing.AllocsPerRun(200, get)
	t.Logf("replicated Get: %.2f allocs/op (budget %.0f)", avg, budget)
	if avg > budget {
		t.Errorf("replicated Get allocates %.2f/op, budget %.0f", avg, budget)
	}
	if ok != 301 {
		t.Fatalf("%d of 301 Gets succeeded", ok)
	}
}

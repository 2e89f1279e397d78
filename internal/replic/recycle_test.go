package replic

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/overload"
	"repro/internal/pool"
	"repro/internal/simnet"
)

// outSince reports how many of p's records were taken since it was made
// and are not back yet. The pool itself panics on a second release.
func outSince[T any, P pool.Record[T]](p *pool.Pool[T, P]) func() int64 {
	t0, r0 := p.Counts()
	return func() int64 {
		t, r := p.Counts()
		return (t - t0) - (r - r0)
	}
}

// TestFetchRecycledAfterLosingLeg: the hedge leg wins and the primary
// answers after it. The loser still completes through the fetch, so the
// fetch must stay out of its pool until then, and go back exactly once —
// with the directory's answer it holds. Under LinkFault duplication every
// request and reply arrives twice: the second copies are dropped unread,
// and nothing may change.
func TestFetchRecycledAfterLosingLeg(t *testing.T) {
	for _, dup := range []bool{false, true} {
		fetches, answers := outSince(fetchPool), outSince(holdersPool)
		nw := simnet.New(5)
		dirNode := nw.AddNode()
		dir := NewDirectoryWith(dirNode, 1, overload.Config{})
		holders := []*simnet.Node{nw.AddNode(), nw.AddNode()}
		client := NewClient(nw.AddNode(), testCfg(), dirNode.ID(), 0, nil, nil)
		obj := h(11)
		// Rank 0 (the lower id) answers long after the hedge point; rank 1,
		// the hedge, answers at once and wins.
		delays := []time.Duration{2 * time.Second, 0}
		for i, n := range holders {
			dir.onAnnounce(0, announceReq{Object: obj, Holder: n.ID(), Origin: i == 0, Seq: 1})
			n, d, r := n, delays[i], &getResp{Data: []byte{byte('a' + i)}, OK: true}
			simnet.NewRPCNode(n).ServeDeferred(methodGet, func(_ simnet.NodeID, _ any, tok simnet.ReplyToken) {
				n.After(d, func() { tok.Reply(r, 8) })
			})
		}
		if dup {
			nw.SetLinkFault(simnet.LinkFault{Duplicate: 1, HoldBack: time.Millisecond})
		}
		calls, outAtDone := 0, int64(0)
		var got []byte
		client.Get(obj, 5*time.Second, func(data []byte, err error) {
			calls++
			if err != nil {
				t.Errorf("dup=%v: Get: %v", dup, err)
			}
			got = data
			outAtDone = fetches()
		})
		nw.RunAll()
		if calls != 1 || string(got) != "b" {
			t.Fatalf("dup=%v: done ran %d times with %q, want once with the hedge's %q", dup, calls, got, "b")
		}
		if outAtDone != 1 {
			t.Fatalf("dup=%v: %d fetches out when done ran, want 1 held by the losing leg", dup, outAtDone)
		}
		if n := fetches(); n != 0 {
			t.Fatalf("dup=%v: the fetch never returned to its pool", dup)
		}
		// The answer the fetch used went back with it; under duplication the
		// directory also answered the request's copy, and that late reply
		// was dropped unread and left to the GC.
		want := 0
		if dup {
			want = 1
		}
		if n := answers(); n != int64(want) {
			t.Fatalf("dup=%v: %d holders answers out, want %d", dup, n, want)
		}
	}
}

// TestCtrlCallsRecycled: a provider's maintenance rounds — holders
// lookups for a hot object, release offers for a cold one — return every
// control record to its pool exactly once. A crash ends every call still
// out, so after one no record may be left.
func TestCtrlCallsRecycled(t *testing.T) {
	calls := outSince(ctrlPool)
	w := newWorld(t, testCfg(), 4, 2)
	obj := h(12)
	w.provs[0].Put(obj, make([]byte, 512), true)
	w.provs[1].Put(obj, make([]byte, 512), false)
	w.hammer(0, obj, time.Second, 40*time.Second, 100*time.Millisecond)
	w.nw.Run(3 * time.Minute)
	if w.metrics().advertSent.Value() == 0 || w.metrics().decayed.Value() == 0 {
		t.Fatalf("adverts %d, decays %d: the rounds did not run both paths",
			w.metrics().advertSent.Value(), w.metrics().decayed.Value())
	}
	for _, p := range w.provs {
		p.Node().Crash()
	}
	if n := calls(); n != 0 {
		t.Fatalf("%d control records out after every provider crashed", n)
	}
}

// Each pooled record stays in the malloc size class it had before it
// carried a pool mark, so the mark costs no heap: a record that outgrows
// its class makes one of these array lengths negative, and the test build
// fails.
var (
	_ [176 - unsafe.Sizeof(fetch{})]byte
	_ [24 - unsafe.Sizeof(holdersResp{})]byte
	_ [48 - unsafe.Sizeof(ctrlCall{})]byte
)

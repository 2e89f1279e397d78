package replic

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/simnet"
)

// poolLedger follows every pooled record through poolHook: a record may be
// taken only while it is in its pool and returned only while it is out, so
// a double take or a double return fails the test at the moment it
// happens.
type poolLedger struct {
	out map[any]bool
}

func trackPools(t *testing.T) *poolLedger {
	l := &poolLedger{out: map[any]bool{}}
	poolHook = func(rec any, taken bool) {
		if l.out[rec] == taken {
			t.Errorf("%T %p taken=%v twice in a row", rec, rec, taken)
		}
		l.out[rec] = taken
	}
	t.Cleanup(func() { poolHook = nil })
	return l
}

// outstanding counts the records of rec's type taken and not yet returned.
func (l *poolLedger) outstanding(rec any) int {
	n := 0
	for r, out := range l.out { // determinism:ok count
		if out && reflect.TypeOf(r) == reflect.TypeOf(rec) {
			n++
		}
	}
	return n
}

// TestFetchRecycledAfterLosingLeg: the hedge leg wins and the primary
// answers after it. The loser still completes through the fetch, so the
// fetch must stay out of its pool until then, and go back exactly once —
// with the directory's answer it holds. Under LinkFault duplication every
// request and reply arrives twice: the second copies are dropped unread,
// and nothing may change.
func TestFetchRecycledAfterLosingLeg(t *testing.T) {
	for _, dup := range []bool{false, true} {
		ledger := trackPools(t)
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
		calls, outAtDone := 0, 0
		var got []byte
		client.Get(obj, 5*time.Second, func(data []byte, err error) {
			calls++
			if err != nil {
				t.Errorf("dup=%v: Get: %v", dup, err)
			}
			got = data
			outAtDone = ledger.outstanding(&fetch{})
		})
		nw.RunAll()
		if calls != 1 || string(got) != "b" {
			t.Fatalf("dup=%v: done ran %d times with %q, want once with the hedge's %q", dup, calls, got, "b")
		}
		if outAtDone != 1 {
			t.Fatalf("dup=%v: %d fetches out when done ran, want 1 held by the losing leg", dup, outAtDone)
		}
		if n := ledger.outstanding(&fetch{}); n != 0 {
			t.Fatalf("dup=%v: the fetch never returned to its pool", dup)
		}
		// The answer the fetch used went back with it; under duplication the
		// directory also answered the request's copy, and that late reply
		// was dropped unread and left to the GC.
		want := 0
		if dup {
			want = 1
		}
		if n := ledger.outstanding(&holdersResp{}); n != want {
			t.Fatalf("dup=%v: %d holders answers out, want %d", dup, n, want)
		}
	}
}

// TestCtrlCallsRecycled: a provider's maintenance rounds — holders
// lookups for a hot object, release offers for a cold one — return every
// control record to its pool exactly once. A crash ends every call still
// out, so after one no record may be left.
func TestCtrlCallsRecycled(t *testing.T) {
	ledger := trackPools(t)
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
	if n := ledger.outstanding(&ctrlCall{}); n != 0 {
		t.Fatalf("%d control records out after every provider crashed", n)
	}
}

package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// leg is a Completion that keeps a ledger of its firings, so a test can
// check that a call completes at most once and never after its CallRef
// was cancelled.
type leg struct {
	fired     int
	cancelled bool // set when Cancel reported success
	err       error
	then      func()
}

func (l *leg) CallDone(resp any, rtt time.Duration, err error) {
	l.fired++
	l.err = err
	if l.then != nil {
		l.then()
	}
}

// TestRPCCancelledLoserReleasesOnce pins the envelope-accounting invariant
// the resilience layer's hedging depends on: when two concurrent calls
// race and the loser is cancelled through its CallRef, the loser's reply
// envelope still comes home through the late-reply path and is returned to
// the pool exactly once — and the cancelled Completion never fires.
func TestRPCCancelledLoserReleasesOnce(t *testing.T) {
	nw := New(11)
	caller, server := nw.AddNode(), nw.AddNode()
	srv := NewRPCNode(server)
	srv.ServeDeferred("get", func(from NodeID, req any, tok ReplyToken) {
		d := time.Duration(0)
		if req == "slow" {
			d = 100 * time.Millisecond
		}
		server.After(d, func() { tok.Reply(req, 16) })
	})
	taken0, released0 := envPool.Counts()
	rpc := NewRPCNode(caller)

	loser, winner := &leg{}, &leg{}
	loserRef := rpc.CallTo(server.ID(), "get", "slow", 16, time.Second, loser)
	winner.then = func() {
		if winner.err != nil {
			t.Errorf("winner failed: %v", winner.err)
		}
		if !loserRef.Cancel() {
			t.Error("losing call was not outstanding at cancellation")
		}
		if loserRef.Cancel() {
			t.Error("second Cancel on the same ref reported success")
		}
	}
	rpc.CallTo(server.ID(), "get", "fast", 16, time.Second, winner)
	nw.RunAll()

	if winner.fired != 1 || loser.fired != 0 {
		t.Fatalf("winner fired %d, loser %d: want exactly one winner and a silent loser", winner.fired, loser.fired)
	}
	// Four envelopes recycle, each exactly once: both request envelopes on
	// receipt at the server, the winner's reply consumed normally,
	// and the loser's reply dropped by the late-reply path — cancellation
	// must not leak that last one, nor release it twice.
	if taken, released := envPool.Counts(); taken-taken0 != 4 || released-released0 != 4 {
		t.Fatalf("envelopes taken %d, released %d; want 4 and 4", taken-taken0, released-released0)
	}
}

// TestRPCCompletionLedger drives every way a call can end — reply, refusal,
// timeout, caller crash, and cancellation before and after each of those —
// and checks each leg's Completion ledger: a leg fires exactly once unless
// it was cancelled while outstanding, in which case it never fires, and a
// Cancel after completion is a no-op that reports false.
func TestRPCCompletionLedger(t *testing.T) {
	nw := New(13)
	caller, server := nw.AddNode(), nw.AddNode()
	srv := NewRPCNode(server)
	srv.Serve("echo", func(from NodeID, req any) (any, int) { return req, 16 })
	srv.ServeDeferred("slow", func(from NodeID, req any, tok ReplyToken) {
		server.After(200*time.Millisecond, func() { tok.Reply(req, 16) })
	})
	rpc := NewRPCNode(caller)

	type call struct {
		method   string
		timeout  time.Duration
		cancelAt time.Duration // 0: never cancelled
		want     error         // expected cause when it fires
	}
	calls := []call{
		{"echo", time.Second, 0, nil},
		{"echo", time.Second, 500 * time.Millisecond, nil}, // cancel after the reply: no-op
		{"nosuch", time.Second, 0, ErrNotServed},
		{"slow", 100 * time.Millisecond, 0, ErrRPCTimeout},
		{"slow", 100 * time.Millisecond, 150 * time.Millisecond, ErrRPCTimeout}, // cancel after the timeout: no-op
		{"slow", time.Second, 50 * time.Millisecond, nil},                       // cancelled in flight: silent
		{"slow", time.Second, 0, ErrCallerCrashed},                              // outlives the crash below
	}
	legs := make([]*leg, len(calls))
	for i, c := range calls {
		l := &leg{}
		legs[i] = l
		ref := rpc.CallTo(server.ID(), c.method, i, 16, c.timeout, l)
		if c.cancelAt > 0 {
			caller.After(c.cancelAt, func() {
				l.cancelled = ref.Cancel()
				if ref.Cancel() {
					t.Errorf("call %d: second Cancel reported success", i)
				}
			})
		}
	}
	// The crash lands after every other leg has settled and before the
	// last one's reply; restart so the late reply finds a live caller.
	caller.Network().After(180*time.Millisecond, caller.Crash)
	caller.Network().After(190*time.Millisecond, caller.Restart)
	nw.RunAll()

	for i, c := range calls {
		l := legs[i]
		if l.cancelled {
			if l.fired != 0 {
				t.Errorf("call %d (%s): fired %d times after a successful Cancel", i, c.method, l.fired)
			}
			continue
		}
		if l.fired != 1 {
			t.Errorf("call %d (%s): fired %d times, want exactly once", i, c.method, l.fired)
			continue
		}
		if !errors.Is(l.err, c.want) || (c.want == nil) != (l.err == nil) {
			t.Errorf("call %d (%s): err = %v, want cause %v", i, c.method, l.err, c.want)
		}
	}
	if !legs[5].cancelled {
		t.Error("the in-flight cancel did not report success")
	}
	if legs[1].cancelled || legs[4].cancelled {
		t.Error("a Cancel after completion reported success")
	}
}

// TestRPCLostMessageReleasesEnvelope: each way an RPC message can be lost
// hands its envelope back to the pool exactly once, as a consumed one does,
// so once a run drains envelopes taken equal envelopes returned. A
// duplicated message carries its own envelope, so each delivered copy goes
// back too — the duplicate request's reply and the late copy of each reply
// included. Every call still completes exactly once.
func TestRPCLostMessageReleasesEnvelope(t *testing.T) {
	lossy := DatacenterProfile()
	lossy.Loss = 0.3
	cases := []struct {
		name    string
		cfg     NetworkConfig
		profile LinkProfile
		fault   LinkFault
		calls   int
		// setup runs before the calls are issued; nil leaves the server up.
		setup func(nw *Network, server *Node)
		// noRPC leaves the server without an RPC handler.
		noRPC bool
		// taken is the exact count of envelopes taken, or 0 for any.
		taken int64
		// lost reports whether the run lost a message the row's way.
		lost func(tr *Trace) bool
	}{
		{name: "duplicate", fault: LinkFault{Duplicate: 1}, calls: 1, taken: 6,
			// The request and its copy, and a reply and its copy for each
			// of the two requests the server received.
			lost: func(tr *Trace) bool { return tr.Duplicated == 3 }},
		{name: "loss", profile: lossy, calls: 40,
			lost: func(tr *Trace) bool { return tr.Dropped > 0 }},
		{name: "down destination", calls: 4, setup: func(_ *Network, s *Node) { s.Crash() },
			lost: func(tr *Trace) bool { return tr.Dropped == 4 }},
		{name: "down destination, sharded", cfg: NetworkConfig{Shards: 2}, calls: 4,
			setup: func(_ *Network, s *Node) { s.Crash() },
			lost:  func(tr *Trace) bool { return tr.Dropped == 4 }},
		{name: "partition in flight", calls: 4,
			setup: func(nw *Network, s *Node) {
				nw.After(500*time.Microsecond, func() { nw.Partition(nil, []NodeID{s.ID()}) })
			},
			lost: func(tr *Trace) bool { return tr.Dropped == 4 && tr.Delivered == 0 }},
		{name: "corrupt", fault: LinkFault{Corrupt: 1}, calls: 4, taken: 4,
			lost: func(tr *Trace) bool { return tr.Corrupted == 4 }},
		{name: "corrupt and duplicate", fault: LinkFault{Corrupt: 1, Duplicate: 1}, calls: 4, taken: 8,
			lost: func(tr *Trace) bool { return tr.Corrupted == 8 && tr.Duplicated == 4 }},
		{name: "no RPC handler", noRPC: true, calls: 4, taken: 4,
			lost: func(tr *Trace) bool { return tr.Unhandled == 4 }},
		{name: "combined faults", cfg: NetworkConfig{Seed: 9}, profile: HomeBroadbandProfile(),
			fault: LinkFault{Corrupt: 0.1, Duplicate: 0.1, Reorder: 0.1}, calls: 200,
			lost: func(tr *Trace) bool { return tr.Dropped > 0 && tr.Corrupted > 0 && tr.Duplicated > 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := NewWithConfig(c.cfg)
			if c.profile != (LinkProfile{}) {
				nw.SetDefaultProfile(c.profile)
			}
			caller, server := nw.AddNode(), nw.AddNode()
			if !c.noRPC {
				NewRPCNode(server).Serve("echo", func(from NodeID, req any) (any, int) { return req, 16 })
			}
			nw.SetLinkFault(c.fault)
			if c.setup != nil {
				c.setup(nw, server)
			}
			taken0, released0 := envPool.Counts()
			rpc := NewRPCNode(caller)
			done := 0
			for i := 0; i < c.calls; i++ {
				rpc.Call(server.ID(), "echo", i, 16, time.Second, func(any, error) { done++ })
			}
			nw.RunAll()

			if done != c.calls {
				t.Fatalf("%d completions for %d calls, want one each", done, c.calls)
			}
			if tr := nw.Trace(); !c.lost(tr) {
				t.Fatalf("trace %+v: the run did not lose messages the %s way", *tr, c.name)
			}
			taken, released := envPool.Counts()
			taken, released = taken-taken0, released-released0
			if taken != released {
				t.Fatalf("envelopes taken %d, released %d; want them equal", taken, released)
			}
			if c.taken != 0 && taken != c.taken {
				t.Fatalf("envelopes taken %d, want %d", taken, c.taken)
			}
		})
	}
}

// TestRPCCrashDrainCancelsSibling: a crash-failure Completion that cancels
// a sibling call on the same node takes that sibling out of the drain, so
// the sibling never fires and the drain does not trip over its record.
func TestRPCCrashDrainCancelsSibling(t *testing.T) {
	nw := New(14)
	caller, server := nw.AddNode(), nw.AddNode()
	NewRPCNode(server).ServeDeferred("hang", func(NodeID, any, ReplyToken) {})
	rpc := NewRPCNode(caller)

	first, sibling := &leg{}, &leg{}
	rpc.CallTo(server.ID(), "hang", nil, 16, time.Second, first)
	siblingRef := rpc.CallTo(server.ID(), "hang", nil, 16, time.Second, sibling)
	first.then = func() { sibling.cancelled = siblingRef.Cancel() }
	nw.After(100*time.Millisecond, caller.Crash)
	nw.RunAll()

	if first.fired != 1 || !errors.Is(first.err, ErrCallerCrashed) {
		t.Fatalf("first call fired %d times with %v, want once with ErrCallerCrashed", first.fired, first.err)
	}
	if !sibling.cancelled {
		t.Error("the sibling was not outstanding when the first failure cancelled it")
	}
	if sibling.fired != 0 {
		t.Errorf("the cancelled sibling fired %d times", sibling.fired)
	}
}

// TestRPCCrashSparesCallsIssuedInDrain: the crash drain fails only the
// calls outstanding when the crash began. A call a failure callback issues
// is not drained: it stays pending until its own timeout.
func TestRPCCrashSparesCallsIssuedInDrain(t *testing.T) {
	nw := New(15)
	caller, server := nw.AddNode(), nw.AddNode()
	NewRPCNode(server).ServeDeferred("hang", func(NodeID, any, ReplyToken) {})
	rpc := NewRPCNode(caller)

	const crashAt, retryWait = 100 * time.Millisecond, 300 * time.Millisecond
	first, retry := &leg{}, &leg{}
	var retryDone time.Duration
	retry.then = func() { retryDone = caller.Now() }
	first.then = func() { rpc.CallTo(server.ID(), "hang", nil, 16, retryWait, retry) }
	rpc.CallTo(server.ID(), "hang", nil, 16, time.Second, first)
	nw.After(crashAt, caller.Crash)
	nw.RunAll()

	if first.fired != 1 || !errors.Is(first.err, ErrCallerCrashed) {
		t.Fatalf("first call fired %d times with %v, want once with ErrCallerCrashed", first.fired, first.err)
	}
	if retry.fired != 1 || !errors.Is(retry.err, ErrRPCTimeout) {
		t.Fatalf("call issued in the drain fired %d times with %v, want once with ErrRPCTimeout", retry.fired, retry.err)
	}
	if retryDone != crashAt+retryWait {
		t.Errorf("call issued in the drain ended at %v, want its timeout at %v", retryDone, crashAt+retryWait)
	}
}

// TestCrashFailsCallsBeforeObservers pins a crash's order: the node's
// outstanding calls fail first, then its OnDown observers run in
// registration order. An observer registered before NewRPCNode, and one
// after, both find the call already failed with ErrCallerCrashed.
func TestCrashFailsCallsBeforeObservers(t *testing.T) {
	nw := New(16)
	caller, server := nw.AddNode(), nw.AddNode()
	NewRPCNode(server).ServeDeferred("hang", func(NodeID, any, ReplyToken) {})
	call := &leg{}
	var order []string
	observe := func(name string) func() {
		return func() {
			if call.fired != 1 || !errors.Is(call.err, ErrCallerCrashed) {
				t.Errorf("observer %s ran before the outstanding call failed (fired %d, err %v)", name, call.fired, call.err)
			}
			order = append(order, name)
		}
	}
	caller.OnDown(observe("before"))
	rpc := NewRPCNode(caller)
	caller.OnDown(observe("after"))
	call.then = func() { order = append(order, "call") }
	rpc.CallTo(server.ID(), "hang", nil, 16, time.Second, call)
	nw.After(100*time.Millisecond, caller.Crash)
	nw.RunAll()

	if got := fmt.Sprint(order); got != "[call before after]" {
		t.Errorf("crash ran %s, want [call before after]", got)
	}
}

// TestRestartObserversInOrder: a restart runs the OnUp observers in
// registration order, each once per restart.
func TestRestartObserversInOrder(t *testing.T) {
	nw := New(17)
	n := nw.AddNode()
	var order []int
	for i := 0; i < 3; i++ {
		n.OnUp(func() { order = append(order, i) })
	}
	for round := 0; round < 2; round++ {
		n.Crash()
		n.Restart()
	}
	if got := fmt.Sprint(order); got != "[0 1 2 0 1 2]" {
		t.Errorf("restarts ran observers %s, want [0 1 2 0 1 2]", got)
	}
}

// TestRPCLateReplyAfterRecordReuse: a call's record goes back to its
// shard's free list when the call ends, and the next call on that shard
// takes it. The reply for call k, landing after k timed out and its record
// was reused by k′, is dropped, and k′ completes exactly once with its own
// reply. k′ is answered later still, so k's reply lands while k′ is
// outstanding. Every message is duplicated, so each reply arrives twice.
func TestRPCLateReplyAfterRecordReuse(t *testing.T) {
	nw := New(16)
	nw.SetLinkFault(LinkFault{Duplicate: 1})
	caller, server := nw.AddNode(), nw.AddNode()
	delay := map[any]time.Duration{"late": 200 * time.Millisecond, "fresh": 400 * time.Millisecond}
	NewRPCNode(server).ServeDeferred("echo", func(_ NodeID, req any, tok ReplyToken) {
		server.After(delay[req], func() { tok.Reply(req, 16) })
	})
	rpc := NewRPCNode(caller)

	k, k2 := &leg{}, &leg{}
	var k2Resp any
	var refK, refK2 CallRef
	k.then = func() {
		refK2 = rpc.CallTo(server.ID(), "echo", "fresh", 16, time.Second, CallFunc(func(resp any, err error) {
			k2Resp = resp
			k2.CallDone(resp, 0, err)
		}))
	}
	refK = rpc.CallTo(server.ID(), "echo", "late", 16, 50*time.Millisecond, k)
	nw.RunAll()

	if refK2.pc != refK.pc || refK2.id == refK.id {
		t.Fatalf("k′ did not reuse k's record under a new id: k %p/%d, k′ %p/%d", refK.pc, refK.id, refK2.pc, refK2.id)
	}
	if k.fired != 1 || !errors.Is(k.err, ErrRPCTimeout) {
		t.Fatalf("k fired %d times with %v, want once with ErrRPCTimeout", k.fired, k.err)
	}
	if k2.fired != 1 || k2.err != nil || k2Resp != "fresh" {
		t.Fatalf("k′ fired %d times with %v (%v), want once with its own reply", k2.fired, k2Resp, k2.err)
	}
}

// TestRPCShardedRecordReuse is the sharded counterpart: on 4 shards and 2
// workers every caller alternates calls that are answered in time and
// calls that time out, each issued from the previous call's completion, so
// late replies keep landing on reused records. Under the race detector it
// also checks that a record is only written by its own shard's worker.
func TestRPCShardedRecordReuse(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 17, Shards: 4, Workers: 2})
	nw.SetDefaultProfile(LinkProfile{Latency: 2 * time.Millisecond})
	nw.SetLinkFault(LinkFault{Duplicate: 1})
	const nodes, calls = 8, 20
	rpcs := make([]*RPCNode, nodes)
	for i := range rpcs {
		n := nw.AddNode()
		rpcs[i] = NewRPCNode(n)
		rpcs[i].ServeDeferred("echo", func(_ NodeID, req any, tok ReplyToken) {
			d := time.Duration(0)
			if req.(int)%2 == 1 {
				d = 150 * time.Millisecond
			}
			n.After(d, func() { tok.Reply(req, 16) })
		})
	}
	type result struct {
		fired int
		resp  any
		err   error
	}
	results := make([][calls]result, nodes)
	records := make([]map[*pendingCall]bool, nodes)
	for i, rpc := range rpcs {
		records[i] = map[*pendingCall]bool{}
		to := rpcs[(i+1)%nodes].Node().ID()
		var issue func(c int)
		issue = func(c int) {
			ref := rpc.CallTo(to, "echo", c, 16, 50*time.Millisecond, CallFunc(func(resp any, err error) {
				r := &results[i][c]
				r.fired++
				r.resp, r.err = resp, err
				if c+1 < calls {
					issue(c + 1)
				}
			}))
			records[i][ref.pc] = true
		}
		issue(0)
	}
	nw.RunAll()

	for i := range rpcs {
		if len(records[i]) >= calls {
			t.Errorf("node %d: %d records for %d calls, want reuse", i, len(records[i]), calls)
		}
		for c, r := range results[i] {
			if r.fired != 1 {
				t.Errorf("node %d call %d fired %d times, want once", i, c, r.fired)
				continue
			}
			if c%2 == 1 {
				if !errors.Is(r.err, ErrRPCTimeout) {
					t.Errorf("node %d call %d: err %v, want ErrRPCTimeout", i, c, r.err)
				}
			} else if r.err != nil || r.resp != c {
				t.Errorf("node %d call %d: %v (err %v), want its own reply", i, c, r.resp, r.err)
			}
		}
	}
}

// Each pooled record stays in the malloc size class it had before it
// carried a pool mark, so the mark costs no heap, and a Node stays in the
// 128 B class with its cold fields behind one pointer: a record that
// outgrows its class makes one of these array lengths negative, and the
// test build fails.
var (
	_ [80 - unsafe.Sizeof(event{})]byte
	_ [80 - unsafe.Sizeof(flight{})]byte
	_ [64 - unsafe.Sizeof(rpcEnvelope{})]byte
	_ [128 - unsafe.Sizeof(Node{})]byte
	_ [128 - unsafe.Sizeof(nodeCold{})]byte
)

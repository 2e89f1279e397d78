package simnet

import (
	"errors"
	"testing"
	"time"
)

// hookReleases installs envReleaseHook for the test's duration and returns
// a counter of envelopes actually returned to the pool.
func hookReleases(t *testing.T) *int {
	t.Helper()
	n := new(int)
	envReleaseHook = func(*rpcEnvelope) { *n++ }
	t.Cleanup(func() { envReleaseHook = nil })
	return n
}

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
	releases := hookReleases(t)
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
	if *releases != 4 {
		t.Fatalf("envelope releases = %d, want 4", *releases)
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

// TestRPCDuplicateFaultSkipsRecycling is the counterpart: while a
// duplicate fault is in force a delivered envelope may be delivered again
// off the same pointer, so none of the involved envelopes may go back to
// the pool — a recycled duplicate would alias a zeroed struct.
func TestRPCDuplicateFaultSkipsRecycling(t *testing.T) {
	nw := New(12)
	caller, server := nw.AddNode(), nw.AddNode()
	srv := NewRPCNode(server)
	srv.Serve("echo", func(from NodeID, req any) (any, int) { return req, 16 })
	nw.SetLinkFault(LinkFault{Duplicate: 1})
	releases := hookReleases(t)
	rpc := NewRPCNode(caller)

	done := 0
	rpc.Call(server.ID(), "echo", "x", 16, time.Second, func(resp any, err error) {
		if err != nil {
			t.Errorf("call under duplicate fault failed: %v", err)
		}
		done++
	})
	nw.RunAll()

	if done != 1 {
		t.Fatalf("done ran %d times, want once despite duplicated delivery", done)
	}
	if *releases != 0 {
		t.Fatalf("envelope releases = %d under duplicate fault, want 0", *releases)
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

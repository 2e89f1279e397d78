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

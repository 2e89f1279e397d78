package resil

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// opLedger follows every op through opHook: an op may be taken only while
// it is in the pool and returned only while it is out, so a double take or
// a double return fails the test at the moment it happens.
type opLedger struct {
	out      map[*op]bool
	returned int
}

func trackOps(t *testing.T) *opLedger {
	l := &opLedger{out: map[*op]bool{}}
	opHook = func(o *op, taken bool) {
		if l.out[o] == taken {
			t.Errorf("op %p taken=%v twice in a row", o, taken)
		}
		l.out[o] = taken
		if !taken {
			l.returned++
		}
	}
	t.Cleanup(func() { opHook = nil })
	return l
}

// outstanding counts the ops taken and not yet returned.
func (l *opLedger) outstanding() int {
	n := 0
	for _, out := range l.out { // determinism:ok count
		if out {
			n++
		}
	}
	return n
}

// TestOpRecycledAfterStrayPrimary: the hedge is shed, so the retry takes
// over o.primary while the first primary is still out; the retry wins. The
// first primary is the one attempt finish cannot cancel, so the op must
// stay out of the pool until that attempt's timeout fires, and go back
// exactly once then. Under LinkFault duplication every request and reply
// arrives twice, and nothing may change.
func TestOpRecycledAfterStrayPrimary(t *testing.T) {
	for _, dup := range []bool{false, true} {
		ledger := trackOps(t)
		cfg := Defaults()
		cfg.Classify = classifyShed
		w := newClientWorld(t, cfg)
		for i := 0; i < 4; i++ { // enough samples to arm the hedge
			if _, err := w.call(t, "echo", time.Second); err != nil {
				t.Fatalf("warm-up %d: %v", i, err)
			}
		}
		// Lift the peer's RTO to 1s, so the first primary times out long
		// after the retry wins.
		w.res.peer(w.server.ID()).est.rto = time.Second
		if dup {
			w.nw.SetLinkFault(simnet.LinkFault{Duplicate: 1, HoldBack: time.Millisecond})
		}
		// Requests are told apart by when they reach the server: the first
		// primary (dropped, so it times out), the hedge 50ms later (shed),
		// and the retry at least a backoff after that (answered).
		var first time.Duration = -1
		srv := simnet.NewRPCNode(w.server)
		srv.ServeDeferred("staged", func(_ simnet.NodeID, req any, tok simnet.ReplyToken) {
			now := w.nw.Now()
			if first < 0 {
				first = now
			}
			switch since := now - first; {
			case since < 25*time.Millisecond:
			case since < 100*time.Millisecond:
				tok.Reply(shed{retryAfter: time.Millisecond}, 16)
			default:
				tok.Reply(req, 16)
			}
		})
		calls, strayOut := 0, 0
		w.res.Call(w.server.ID(), "staged", "ping", 16, time.Second, func(resp any, err error) {
			calls++
			if err != nil || resp != "ping" {
				t.Errorf("dup=%v: resp=%v err=%v", dup, resp, err)
			}
			strayOut = ledger.outstanding()
		})
		w.nw.RunAll()
		if calls != 1 {
			t.Fatalf("dup=%v: done ran %d times, want once", dup, calls)
		}
		if w.res.m.hedgeFired.Value() != 1 || w.res.m.retries.Value() != 1 {
			t.Fatalf("dup=%v: hedges %d, retries %d, want 1 and 1: the retry did not replace a live primary",
				dup, w.res.m.hedgeFired.Value(), w.res.m.retries.Value())
		}
		if strayOut != 1 {
			t.Fatalf("dup=%v: %d ops out when done ran, want 1 held by the first primary", dup, strayOut)
		}
		if n := ledger.outstanding(); n != 0 {
			t.Fatalf("dup=%v: %d ops never returned to the pool", dup, n)
		}
		if ledger.returned != 5 {
			t.Fatalf("dup=%v: %d returns for 5 ops", dup, ledger.returned)
		}
	}
}

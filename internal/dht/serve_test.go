package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/resil"
	"repro/internal/simnet"
)

// replyLedger follows every pooled reply through replyHook: a reply must
// not be taken while it is out, nor released unless it is out.
type replyLedger struct {
	out             map[*findResp]bool
	taken, released int
}

func watchReplies(t *testing.T) *replyLedger {
	t.Helper()
	l := &replyLedger{out: map[*findResp]bool{}}
	replyHook = func(r *findResp, taken bool) {
		if taken {
			if l.out[r] {
				t.Errorf("reply %p taken from the pool while still out", r)
			}
			l.out[r] = true
			l.taken++
			return
		}
		if !l.out[r] {
			t.Errorf("reply %p released twice, or released without being taken", r)
		}
		delete(l.out, r)
		l.released++
	}
	t.Cleanup(func() { replyHook = nil })
	return l
}

// runReplyWorld bootstraps n peers on nw and then runs Gets, Puts and
// LookupNodes from rotating peers, returning how many of them succeeded.
func runReplyWorld(t *testing.T, nw *simnet.Network, n int, cfg Config) (ok, total int) {
	t.Helper()
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = NewPeer(nw.AddNode(), Key{}, cfg)
	}
	for i := 1; i < n; i++ {
		p := peers[i]
		nw.After(time.Duration(i)*50*time.Millisecond, func() { p.Bootstrap(peers[0].Contact(), nil) })
	}
	nw.RunAll()
	for i := 0; i < 120; i++ {
		p := peers[(i*11)%n]
		k := key(fmt.Sprintf("reply-%d", i%10))
		total++
		switch i % 3 {
		case 0:
			p.Put(k, []byte{1}, func(stored int) {
				if stored > 0 {
					ok++
				}
			})
		case 1:
			p.Get(k, func(_ []byte, found bool) {
				if found {
					ok++
				}
			})
		default:
			p.LookupNode(k, func(cs []Contact) {
				if len(cs) > 0 {
					ok++
				}
			})
		}
		nw.RunAll()
	}
	return ok, total
}

// TestReplyReleasedOnceUnderDuplicates: with a fifth of all messages
// delivered twice, a duplicated request is served twice and a duplicated
// reply arrives twice. The second copy reaches no live call, so the RPC
// layer drops it and the reply it carries is left to the GC; the first is
// released by its lookup exactly once.
func TestReplyReleasedOnceUnderDuplicates(t *testing.T) {
	l := watchReplies(t)
	nw := simnet.New(41)
	nw.SetLinkFault(simnet.LinkFault{Duplicate: 0.2})
	ok, total := runReplyWorld(t, nw, 40, Config{K: 6})
	if nw.Trace().Duplicated == 0 {
		t.Fatal("no message was duplicated")
	}
	if ok < total*9/10 {
		t.Errorf("%d of %d operations succeeded under duplication", ok, total)
	}
	if l.released == 0 || len(l.out) == 0 {
		t.Errorf("taken %d, released %d, left to the GC %d: want both paths exercised", l.taken, l.released, len(l.out))
	}
	t.Logf("%d replies taken, %d released, %d left to the GC; %d messages duplicated", l.taken, l.released, len(l.out), nw.Trace().Duplicated)
	if l.taken != l.released+len(l.out) {
		t.Errorf("taken %d != released %d + out %d", l.taken, l.released, len(l.out))
	}
}

// TestReplyReleasedOnceUnderHedging: with the resilience layer on and a
// jittery network, hedged second attempts fire; whichever attempt loses is
// cancelled, its reply dropped as late and left to the GC, and the
// winner's reply is released exactly once.
func TestReplyReleasedOnceUnderHedging(t *testing.T) {
	l := watchReplies(t)
	nw := simnet.New(42)
	nw.SetDefaultProfile(simnet.LinkProfile{Latency: 10 * time.Millisecond, Jitter: 80 * time.Millisecond})
	ok, total := runReplyWorld(t, nw, 30, Config{K: 4, Resilience: resil.Defaults()})
	fired := nw.Obs().Counter("resil.hedge.fired").Value()
	won := nw.Obs().Counter("resil.hedge.won").Value()
	if fired == 0 || won == 0 {
		t.Fatalf("hedges fired %d, won %d: want both", fired, won)
	}
	t.Logf("%d replies taken, %d released, %d left to the GC; hedges fired %d, won %d", l.taken, l.released, len(l.out), fired, won)
	if ok < total*9/10 {
		t.Errorf("%d of %d operations succeeded with hedging", ok, total)
	}
	if l.released == 0 || len(l.out) == 0 {
		t.Errorf("taken %d, released %d, left to the GC %d: want both paths exercised", l.taken, l.released, len(l.out))
	}
}

package simnet

import (
	"testing"
	"time"
)

// TestLinkFaultCorruptDropsAtDelivery: a corrupted message is counted as
// delivered and as Corrupted, then discarded before any handler runs, the
// way a frame whose checksum fails never reaches the protocol.
func TestLinkFaultCorruptDropsAtDelivery(t *testing.T) {
	nw := New(21)
	a, b := nw.AddNode(), nw.AddNode()
	nw.SetLinkFault(LinkFault{Corrupt: 1})
	ran := 0
	b.Handle("m", func(Message) { ran++ })
	a.Send(b.ID(), "m", "hello", 8)
	nw.RunAll()
	if ran != 0 {
		t.Fatalf("handler ran %d times on a corrupted message, want 0", ran)
	}
	if tr := nw.Trace(); tr.Corrupted != 1 || tr.Delivered != 1 || tr.Unhandled != 0 {
		t.Fatalf("trace = %+v, want Corrupted=1 Delivered=1 Unhandled=0", tr)
	}
}

// TestLinkFaultDuplicateDeliversTwice: a duplicated message reaches the
// handler twice and is counted once as Duplicated.
func TestLinkFaultDuplicateDeliversTwice(t *testing.T) {
	nw := New(22)
	a, b := nw.AddNode(), nw.AddNode()
	nw.SetLinkFault(LinkFault{Duplicate: 1})
	got := 0
	b.Handle("m", func(Message) { got++ })
	a.Send(b.ID(), "m", nil, 8)
	nw.RunAll()
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2", got)
	}
	tr := nw.Trace()
	if tr.Duplicated != 1 || tr.Delivered != 2 || tr.Sent != 1 {
		t.Fatalf("trace = %+v, want Duplicated=1 Delivered=2 Sent=1", tr)
	}
}

// TestLinkFaultReorderInvertsOrder: with reordering forced on the first
// message only, a later send can overtake it.
func TestLinkFaultReorderInvertsOrder(t *testing.T) {
	nw := New(23)
	a, b := nw.AddNode(), nw.AddNode()
	var order []string
	note := func(m Message) { order = append(order, m.Kind) }
	b.Handle("first", note)
	b.Handle("second", note)

	nw.SetLinkFault(LinkFault{Reorder: 1, HoldBack: time.Second})
	a.Send(b.ID(), "first", nil, 8)
	nw.SetLinkFault(LinkFault{})
	a.Send(b.ID(), "second", nil, 8)
	nw.RunAll()
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("delivery order = %v, want [second first]", order)
	}
	if nw.Trace().Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", nw.Trace().Reordered)
	}
}

// TestZeroLinkFaultPreservesEventStream: installing and clearing a zero
// fault must not consume RNG draws — the event stream with the zero fault
// must be identical to one that never touched the knob.
func TestZeroLinkFaultPreservesEventStream(t *testing.T) {
	run := func(touch bool) Trace {
		nw := New(99)
		a, b := nw.AddNodeWithProfile(HomeBroadbandProfile()), nw.AddNodeWithProfile(HomeBroadbandProfile())
		b.Handle("x", func(Message) {})
		if touch {
			nw.SetLinkFault(LinkFault{})
		}
		for i := 0; i < 500; i++ {
			i := i
			nw.Schedule(time.Duration(i)*100*time.Millisecond, func() { a.Send(b.ID(), "x", nil, 256) })
		}
		nw.RunAll()
		return *nw.Trace()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("zero LinkFault changed the run: %+v vs %+v", a, b)
	}
}

// TestClockSkewScalesNodeTimers: a node running 2× fast fires its local
// timers in half the network time; a slow node fires late; the network
// clock is unaffected.
func TestClockSkewScalesNodeTimers(t *testing.T) {
	nw := New(31)
	fast, slow, exact := nw.AddNode(), nw.AddNode(), nw.AddNode()
	fast.SetClockSkew(2)
	slow.SetClockSkew(0.5)
	var fastAt, slowAt, exactAt time.Duration
	fast.After(time.Minute, func() { fastAt = nw.Now() })
	slow.After(time.Minute, func() { slowAt = nw.Now() })
	exact.After(time.Minute, func() { exactAt = nw.Now() })
	nw.RunAll()
	if fastAt != 30*time.Second {
		t.Errorf("fast timer fired at %v, want 30s", fastAt)
	}
	if slowAt != 2*time.Minute {
		t.Errorf("slow timer fired at %v, want 2m", slowAt)
	}
	if exactAt != time.Minute {
		t.Errorf("unskewed timer fired at %v, want 1m", exactAt)
	}
}

// TestClockSkewResets: rates <= 0 reset to a perfect clock.
func TestClockSkewResets(t *testing.T) {
	nw := New(32)
	n := nw.AddNode()
	n.SetClockSkew(1.5)
	if n.cold.clockRate != 1.5 {
		t.Fatalf("skew = %v, want 1.5", n.cold.clockRate)
	}
	n.SetClockSkew(0)
	if n.cold.clockRate != 1 {
		t.Fatalf("skew after reset = %v, want 1", n.cold.clockRate)
	}
}

// TestSkewedRPCTimeout: RPC timeouts run on the caller's clock — a 2×-fast
// caller gives up twice as early in network time.
func TestSkewedRPCTimeout(t *testing.T) {
	nw := New(33)
	caller := NewRPCNode(nw.AddNode())
	// The callee exists but serves nothing, so the call can only time out.
	callee := NewRPCNode(nw.AddNode())
	_ = callee
	caller.Node().SetClockSkew(2)
	var timedOutAt time.Duration
	caller.Call(callee.Node().ID(), "missing-method-timeout", nil, 8, time.Minute, func(_ any, err error) {
		if err != nil {
			timedOutAt = nw.Now()
		}
	})
	// Crash the callee first so the "does not serve" error reply never
	// arrives and the timeout path is what fires.
	callee.Node().Crash()
	nw.RunAll()
	if timedOutAt != 30*time.Second {
		t.Fatalf("skewed RPC timeout fired at %v, want 30s", timedOutAt)
	}
}

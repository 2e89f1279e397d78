package simnet

import (
	"math"
	"testing"
	"time"
)

// TestLossComposition: with loss at both endpoints the drop probability must
// compose as independent events, 1-(1-pa)(1-pb) — not the sum, which
// overstates the rate.
func TestLossComposition(t *testing.T) {
	nw := New(7)
	src := nw.AddNodeWithProfile(LinkProfile{Loss: 0.2})
	dst := nw.AddNodeWithProfile(LinkProfile{Loss: 0.2})
	dst.Handle("x", func(m Message) {})
	const n = 20000
	for i := 0; i < n; i++ {
		src.Send(dst.ID(), "x", nil, 1)
	}
	nw.RunAll()
	want := (1 - 0.2) * (1 - 0.2) // 0.64 delivery rate
	tr := nw.Trace()
	rate := float64(tr.Delivered) / float64(tr.Sent)
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("delivery rate = %.4f, want ≈%.2f (independent composition)", rate, want)
	}
	// Summing the losses would predict 0.6 delivery; make sure we are
	// measurably above that.
	if rate < 0.62 {
		t.Errorf("delivery rate = %.4f suggests losses were summed, not composed", rate)
	}
}

// TestLostMessageDoesNotOccupyUplink: a dropped message must not serialize
// onto the sender's uplink, so it cannot delay traffic behind it.
func TestLostMessageDoesNotOccupyUplink(t *testing.T) {
	nw := New(1)
	// Loss = 1: every send is dropped. 1 MB at 8 Mbps would charge 1 s of
	// uplink per message if the implementation (wrongly) serialized drops.
	src := nw.AddNodeWithProfile(LinkProfile{UplinkBps: 8e6, Loss: 1})
	dst := nw.AddNodeWithProfile(LinkProfile{})
	dst.Handle("x", func(m Message) {})
	for i := 0; i < 10; i++ {
		src.Send(dst.ID(), "x", nil, 1_000_000)
	}
	// Re-open the link and send one message: it must serialize immediately,
	// not queue behind ten phantom transfers.
	src.SetProfile(LinkProfile{UplinkBps: 8e6})
	var at time.Duration
	dst.Handle("y", func(m Message) { at = nw.Now() })
	src.Send(dst.ID(), "y", nil, 1_000_000)
	nw.RunAll()
	if at != time.Second {
		t.Errorf("delivery at %v, want 1s: lost messages occupied the uplink", at)
	}
}

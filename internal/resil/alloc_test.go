//go:build !race

// The race detector makes sync.Pool drop a random share of what it is
// given, so the RPC layer's pooled envelopes and call records are
// sometimes allocated afresh; these gates only hold in normal builds.

package resil

import (
	"testing"
	"time"
)

// TestAllocResilCall pins one resilient call with the layer enabled and a
// hedge armed (the peer has enough samples; the reply beats the hedge
// point) at zero allocations: the op comes from its pool, its attempts
// complete through the op itself and its timers carry the op as their
// argument.
func TestAllocResilCall(t *testing.T) {
	const budget = 0.0
	w := newClientWorld(t, Defaults())
	done := func(any, error) {}
	call := func() {
		w.res.Call(w.server.ID(), "echo", "ping", 16, time.Second, done)
		w.nw.RunAll()
	}
	for i := 0; i < 100; i++ {
		call()
	}
	armed := w.nw.Trace().Sent
	call()
	if fired := w.res.m.hedgeFired.Value(); fired != 0 || w.nw.Trace().Sent-armed != 2 {
		t.Fatalf("the hedge fired (%d) or a call sent %d messages: the gate would measure more than one call", fired, w.nw.Trace().Sent-armed)
	}
	if n := w.res.peer(w.server.ID()).est.Samples(); n < hedgeMinSamples {
		t.Fatalf("peer has %d samples, the hedge is not armed", n)
	}
	avg := testing.AllocsPerRun(200, call)
	t.Logf("resilient call: %.2f allocs/op (budget %.0f)", avg, budget)
	if avg > budget {
		t.Errorf("resilient call allocates %.2f/op, budget %.0f", avg, budget)
	}
}

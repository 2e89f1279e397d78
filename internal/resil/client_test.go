package resil

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// clientWorld is the two-node harness behind the Client tests: node 0
// calls, node 1 serves "echo" (synchronously) and "slow" (asynchronously,
// with a per-request delay the test scripts through delays).
type clientWorld struct {
	nw     *simnet.Network
	caller *simnet.Node
	server *simnet.Node
	rpc    *simnet.RPCNode // the caller's raw endpoint
	res    *Client
	via    simnet.Caller   // what call issues through
	delays []time.Duration // consumed per "slow" request, in arrival order
}

// newClientWorld builds the harness with a Client from New(rpc, cfg) as
// the caller.
func newClientWorld(t *testing.T, cfg Config) *clientWorld {
	t.Helper()
	w := newEchoWorld(t)
	w.res = New(w.rpc, cfg)
	w.via = w.res
	return w
}

// newEchoWorld builds the two nodes and the server's methods; the caller
// has its RPC endpoint and nothing on top of it.
func newEchoWorld(t *testing.T) *clientWorld {
	t.Helper()
	w := &clientWorld{nw: simnet.New(7)}
	w.caller = w.nw.AddNode()
	w.server = w.nw.AddNode()
	srv := simnet.NewRPCNode(w.server)
	srv.Serve("echo", func(from simnet.NodeID, req any) (any, int) {
		return req, 16
	})
	srv.ServeDeferred("slow", func(from simnet.NodeID, req any, tok simnet.ReplyToken) {
		d := time.Duration(0)
		if len(w.delays) > 0 {
			d, w.delays = w.delays[0], w.delays[1:]
		}
		w.server.After(d, func() { tok.Reply(req, 16) })
	})
	w.rpc = simnet.NewRPCNode(w.caller)
	return w
}

// call issues one call through w.via and runs the network until it
// completes.
func (w *clientWorld) call(t *testing.T, method string, fallback time.Duration) (any, error) {
	t.Helper()
	var gotResp any
	var gotErr error
	calls := 0
	w.via.Call(w.server.ID(), method, "ping", 16, fallback, func(resp any, err error) {
		calls++
		gotResp, gotErr = resp, err
	})
	// RunAll is safe here: the harness schedules no recurring timers, so
	// the queue drains once the operation (and any late replies) settle —
	// and the clock stays at the last real event, which the timing
	// assertions below rely on.
	w.nw.RunAll()
	if calls != 1 {
		t.Fatalf("done invoked %d times, want exactly once", calls)
	}
	return gotResp, gotErr
}

// TestWrapDisabledIsRPCNode: a zero Config wraps to the RPC node itself,
// registers no resil metric, and calls through it are raw RPCs with the
// caller's fixed timeout.
func TestWrapDisabledIsRPCNode(t *testing.T) {
	w := newEchoWorld(t)
	w.via = Wrap(w.rpc, Config{})
	if w.via != simnet.Caller(w.rpc) {
		t.Fatalf("Wrap(rpc, Config{}) = %T, want the RPC node itself", w.via)
	}
	if resp, err := w.call(t, "echo", time.Second); err != nil || resp != "ping" {
		t.Fatalf("passthrough echo: resp=%v err=%v", resp, err)
	}
	// With the server down, the only attempt times out at the caller's
	// legacy fallback — no retry, no breaker, no state.
	w.server.Crash()
	start := w.nw.Now()
	if _, err := w.call(t, "echo", 700*time.Millisecond); !errors.Is(err, simnet.ErrRPCTimeout) {
		t.Fatalf("passthrough timeout err = %v", err)
	}
	if got := w.nw.Now() - start; got != 700*time.Millisecond {
		t.Fatalf("passthrough gave up after %v, want the 700ms fallback", got)
	}
	if names := resilMetricNames(w.nw); len(names) != 0 {
		t.Fatalf("disabled Wrap registered %v", names)
	}
	if _, ok := Wrap(w.rpc, Defaults()).(*Client); !ok {
		t.Fatal("Wrap with the layer enabled did not return a *Client")
	}
}

// resilMetricNames lists the resil.* counters and histograms registered on
// nw.
func resilMetricNames(nw *simnet.Network) []string {
	snap := obs.MergeRegistries([]*obs.Registry{nw.Obs()})
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "resil.") {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "resil.") {
			names = append(names, name)
		}
	}
	return names
}

func TestClientSuccessFeedsEstimator(t *testing.T) {
	w := newClientWorld(t, Defaults())
	if resp, err := w.call(t, "echo", time.Second); err != nil || resp != "ping" {
		t.Fatalf("echo: resp=%v err=%v", resp, err)
	}
	e := &w.res.peer(w.server.ID()).est
	if e.Samples() != 1 {
		t.Fatalf("peer estimator samples = %d, want 1", e.Samples())
	}
	if w.res.global.Samples() != 1 {
		t.Fatalf("global estimator samples = %d, want 1", w.res.global.Samples())
	}
	// A fresh peer now inherits the measured global prior, not the 1s
	// cold-start Initial.
	fresh := &w.res.peer(w.server.ID() + 100).est
	if fresh.RTO() != w.res.global.RTO() {
		t.Fatalf("fresh peer RTO %v, want seeded global %v", fresh.RTO(), w.res.global.RTO())
	}
}

func TestClientRetryAfterTimeout(t *testing.T) {
	w := newClientWorld(t, Defaults())
	w.server.Crash()
	// Primary times out at the 1s initial RTO; the first backoff delay is
	// 100ms±25%, so the server is back up before the retry is issued.
	w.caller.After(1050*time.Millisecond, w.server.Restart)
	if resp, err := w.call(t, "echo", time.Second); err != nil || resp != "ping" {
		t.Fatalf("retried echo: resp=%v err=%v", resp, err)
	}
	if got := w.res.m.retries.Value(); got != 1 {
		t.Fatalf("resil.retry.count = %d, want 1", got)
	}
	// Karn's rule: the retried operation's completion fed no RTT sample.
	if got := w.res.peer(w.server.ID()).est.Samples(); got != 0 {
		t.Fatalf("retransmitted op fed %d samples, want 0", got)
	}
}

func TestClientExhaustionOpensBreaker(t *testing.T) {
	w := newClientWorld(t, Defaults())
	w.server.Crash()
	_, err := w.call(t, "echo", time.Second)
	if !errors.Is(err, simnet.ErrRPCTimeout) {
		t.Fatalf("exhausted op err = %v, want timeout", err)
	}
	if got := w.res.m.retries.Value(); got != maxAttempts-1 {
		t.Fatalf("retries = %d, want %d", got, maxAttempts-1)
	}
	// Three timeouts tripped the per-peer breaker; the next call is
	// refused locally without touching the network.
	if got := w.res.m.breakerOpen.Value(); got != 1 {
		t.Fatalf("resil.breaker.open = %d, want 1", got)
	}
	sentBefore := w.nw.Trace().Sent
	if _, err := w.call(t, "echo", time.Second); !errors.Is(err, ErrSuspected) {
		t.Fatalf("fast-fail err = %v, want ErrSuspected", err)
	}
	if w.nw.Trace().Sent != sentBefore {
		t.Fatal("fast-failed call still sent traffic")
	}
	if got := w.res.m.fastfail.Value(); got != 1 {
		t.Fatalf("resil.fastfail.count = %d, want 1", got)
	}
}

func TestClientHedgeWins(t *testing.T) {
	w := newClientWorld(t, Defaults())
	// Four fast completions warm the peer estimator past hedgeMinSamples
	// and shrink the RTO toward the 200ms rtoMin clamp.
	for i := 0; i < 4; i++ {
		if _, err := w.call(t, "slow", time.Second); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}
	if got := w.res.peer(w.server.ID()).est.Samples(); got < hedgeMinSamples {
		t.Fatalf("warm-up left %d samples, need %d", got, hedgeMinSamples)
	}
	// Fifth op: the primary's reply is held for 150ms — past the ~50ms
	// hedge point but inside the RTO — while the hedge's reply is
	// immediate, so the hedge fires, wins, and the primary is cancelled.
	w.delays = []time.Duration{150 * time.Millisecond, 0}
	if resp, err := w.call(t, "slow", time.Second); err != nil || resp != "ping" {
		t.Fatalf("hedged call: resp=%v err=%v", resp, err)
	}
	if got := w.res.m.hedgeFired.Value(); got != 1 {
		t.Fatalf("resil.hedge.fired = %d, want 1", got)
	}
	if got := w.res.m.hedgeWon.Value(); got != 1 {
		t.Fatalf("resil.hedge.won = %d, want 1", got)
	}
	if got := w.res.m.retries.Value(); got != 0 {
		t.Fatalf("hedged op also retried: retries = %d", got)
	}
}

// TestClientHedgeLossNotCounted: a hedge that fires but loses to the
// primary counts in resil.hedge.fired and not in resil.hedge.won — a win is
// counted on the hedge leg's Completion only.
func TestClientHedgeLossNotCounted(t *testing.T) {
	w := newClientWorld(t, Defaults())
	for i := 0; i < 4; i++ {
		if _, err := w.call(t, "slow", time.Second); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}
	// The primary answers at 100ms, after the ~50ms hedge point; the
	// hedge's reply is held far longer, so the primary wins and cancels it.
	w.delays = []time.Duration{100 * time.Millisecond, 500 * time.Millisecond}
	if resp, err := w.call(t, "slow", time.Second); err != nil || resp != "ping" {
		t.Fatalf("hedged call: resp=%v err=%v", resp, err)
	}
	if got := w.res.m.hedgeFired.Value(); got != 1 {
		t.Fatalf("resil.hedge.fired = %d, want 1", got)
	}
	if got := w.res.m.hedgeWon.Value(); got != 0 {
		t.Fatalf("resil.hedge.won = %d after the primary won, want 0", got)
	}
}

func TestClientRefusalNotRetried(t *testing.T) {
	w := newClientWorld(t, Defaults())
	_, err := w.call(t, "nosuch", time.Second)
	if !errors.Is(err, simnet.ErrNotServed) {
		t.Fatalf("unserved method err = %v, want ErrNotServed", err)
	}
	if got := w.res.m.retries.Value(); got != 0 {
		t.Fatalf("refusal was retried: retries = %d", got)
	}
}

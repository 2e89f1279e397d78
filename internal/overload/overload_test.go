package overload

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// world is one server node plus nc client nodes. The server sits on a
// home-broadband uplink (1 Mbps up) so a handful of sizeable replies
// saturate it, exactly the X18 failure shape.
func world(seed int64, nc int) (*simnet.Network, *simnet.RPCNode, []*simnet.RPCNode) {
	nw := simnet.New(seed)
	srv := simnet.NewRPCNode(nw.AddNodeWithProfile(simnet.HomeBroadbandProfile()))
	clients := make([]*simnet.RPCNode, nc)
	for i := range clients {
		clients[i] = simnet.NewRPCNode(nw.AddNode())
	}
	return nw, srv, clients
}

func enabledCfg() Config {
	return Config{Enabled: true, QueueLen: 16, Target: 200 * time.Millisecond,
		SLO: 500 * time.Millisecond, MinLimit: 1, MaxLimit: 8, RetryAfterBase: 500 * time.Millisecond}
}

func TestPassthroughIsPlainServe(t *testing.T) {
	nw, srv, clients := world(1, 1)
	s := New(srv, Config{})
	if s.m != nil {
		t.Fatal("zero Config must build a passthrough Server")
	}
	if s.Limit() != 0 {
		t.Fatalf("passthrough Limit = %v, want 0", s.Limit())
	}
	s.Protect("echo", func(from simnet.NodeID, req any) (any, int) { return req, 8 })
	s.Control("ping", func(from simnet.NodeID, req any) (any, int) { return "pong", 8 })
	var got any
	clients[0].Call(srv.Node().ID(), "echo", "hi", 8, 5*time.Second, func(resp any, err error) {
		if err != nil {
			t.Fatalf("echo: %v", err)
		}
		got = resp
	})
	var pong any
	clients[0].Call(srv.Node().ID(), "ping", nil, 8, 5*time.Second, func(resp any, err error) {
		if err != nil {
			t.Fatalf("ping: %v", err)
		}
		pong = resp
	})
	nw.RunAll()
	if got != "hi" || pong != "pong" {
		t.Fatalf("passthrough replies = %v/%v", got, pong)
	}
}

func TestValidation(t *testing.T) {
	for _, bad := range []func(*Config){
		func(c *Config) { c.QueueLen = -1 },
		func(c *Config) { c.QueueLen = 0 },
		func(c *Config) { c.Target = -time.Second },
		func(c *Config) { c.Target = 0 },
		func(c *Config) { c.SLO = 0 },
		func(c *Config) { c.RetryAfterBase = 0 },
		func(c *Config) { c.MinLimit = -2 },
		func(c *Config) { c.MinLimit = 0 },
		func(c *Config) { c.MaxLimit = 0 },
		func(c *Config) { c.MinLimit, c.MaxLimit = 8, 2 },
	} {
		c := enabledCfg()
		bad(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Config %+v did not panic", c)
				}
			}()
			New(simnet.NewRPCNode(simnet.New(1).AddNode()), c)
		}()
	}
}

func TestClassifyAndHint(t *testing.T) {
	if err := Classify("not a shed"); err != nil {
		t.Fatalf("Classify(non-shed) = %v", err)
	}
	err := Classify(Shed{RetryAfter: 2 * time.Second})
	oerr, ok := err.(*ErrOverloaded)
	if !ok {
		t.Fatalf("Classify(Shed) = %T", err)
	}
	if oerr.RetryAfterHint() != 2*time.Second {
		t.Fatalf("hint = %v", oerr.RetryAfterHint())
	}
	if oerr.Error() == "" {
		t.Fatal("empty error string")
	}
	if again := Classify(Shed{RetryAfter: 2 * time.Second}); again != err {
		t.Fatal("a second shed with the same hint built a new error")
	}
	if other := Classify(Shed{RetryAfter: time.Second}); other.(*ErrOverloaded).RetryAfter != time.Second {
		t.Fatalf("hint 1s classified as %v", other)
	}
}

// TestSaturationShedsAndBoundsQueue floods a 1 Mbps origin with far more
// work than it can serialize and checks the control loop's invariants:
// some requests are shed with hints, every offered request is accounted
// for, the queue never exceeds its bound, and the AIMD limit stays within
// [MinLimit, MaxLimit] at every decision point.
func TestSaturationShedsAndBoundsQueue(t *testing.T) {
	nw, srv, clients := world(7, 40)
	s := New(srv, enabledCfg())
	blob := make([]byte, 16<<10)
	s.Protect("blob.get", func(from simnet.NodeID, req any) (any, int) { return blob, len(blob) })

	served, shed, failed := 0, 0, 0
	for round := 0; round < 5; round++ {
		at := time.Duration(round) * 100 * time.Millisecond
		for _, c := range clients {
			c := c
			nw.Schedule(at, func() {
				c.Call(srv.Node().ID(), "blob.get", nil, 64, 30*time.Second, func(resp any, err error) {
					switch {
					case err != nil:
						failed++
					case isShed(resp):
						shed++
						if resp.(Shed).RetryAfter <= 0 {
							t.Error("shed with non-positive hint")
						}
					default:
						served++
					}
				})
				if s.q.depth() > enabledCfg().QueueLen {
					t.Errorf("queue depth %d exceeds bound %d", s.q.depth(), enabledCfg().QueueLen)
				}
				if l := s.Limit(); l < float64(enabledCfg().MinLimit) || l > float64(enabledCfg().MaxLimit) {
					t.Errorf("AIMD limit %v outside [%d, %d]", l, enabledCfg().MinLimit, enabledCfg().MaxLimit)
				}
			})
		}
	}
	nw.Run(2 * time.Minute)
	if shed == 0 {
		t.Fatalf("saturated origin shed nothing (served=%d failed=%d)", served, failed)
	}
	if served == 0 {
		t.Fatalf("saturated origin served nothing (shed=%d failed=%d)", shed, failed)
	}
	r := srv.Node().Obs()
	offered := r.Counter("overload.offered").Value()
	admitted := r.Counter("overload.admitted").Value()
	shedC := r.Counter("overload.shed").Value()
	if offered == 0 || admitted+shedC+int64(s.q.depth()) != offered {
		t.Fatalf("accounting: offered=%d admitted=%d shed=%d depth=%d", offered, admitted, shedC, s.q.depth())
	}
}

// TestPerSenderFIFOSurvives checks the CoDel discipline's ordering
// contract: whatever is shed from the front, the requests that *are*
// served leave in global arrival order — so per-sender FIFO order of
// survivors is preserved.
func TestPerSenderFIFOSurvives(t *testing.T) {
	nw, srv, clients := world(11, 6)
	cfg := enabledCfg()
	cfg.Target = 50 * time.Millisecond // aggressive: force front drops
	s := New(srv, cfg)
	blob := make([]byte, 32<<10)
	type tag struct{ sender, seq int }
	var servedOrder []tag
	s.Protect("blob.get", func(from simnet.NodeID, req any) (any, int) {
		servedOrder = append(servedOrder, req.(tag))
		return blob, len(blob)
	})
	for seq := 0; seq < 10; seq++ {
		for ci, c := range clients {
			ci, c, seq := ci, c, seq
			nw.Schedule(time.Duration(seq*30)*time.Millisecond, func() {
				c.Call(srv.Node().ID(), "blob.get", tag{ci, seq}, 64, time.Minute, func(any, error) {})
			})
		}
	}
	nw.Run(3 * time.Minute)
	last := map[int]int{}
	for _, tg := range servedOrder {
		if prev, ok := last[tg.sender]; ok && tg.seq <= prev {
			t.Fatalf("per-sender FIFO violated for sender %d: seq %d after %d", tg.sender, tg.seq, prev)
		}
		last[tg.sender] = tg.seq
	}
	if srv.Node().Obs().Counter("overload.codel.dropped").Value() == 0 {
		t.Fatal("expected CoDel front drops under the aggressive target")
	}
}

// TestControlLaneStaysFast saturates the bulk plane and checks the
// tentpole's core claim at unit scale: control-plane RPCs on the priority
// lane keep RTTs near the unloaded baseline while bulk replies queue.
func TestControlLaneStaysFast(t *testing.T) {
	nw, srv, clients := world(13, 20)
	s := New(srv, Config{Enabled: true, QueueLen: 64, Target: 5 * time.Second,
		SLO: 10 * time.Second, MinLimit: 4, MaxLimit: 64, RetryAfterBase: 500 * time.Millisecond})
	blob := make([]byte, 64<<10)
	s.Protect("blob.get", func(from simnet.NodeID, req any) (any, int) { return blob, len(blob) })
	s.Control("ctl.ping", func(from simnet.NodeID, req any) (any, int) { return "pong", 8 })

	for round := 0; round < 10; round++ {
		at := time.Duration(round) * 50 * time.Millisecond
		for _, c := range clients[1:] {
			c := c
			nw.Schedule(at, func() {
				c.Call(srv.Node().ID(), "blob.get", nil, 64, 5*time.Minute, func(any, error) {})
			})
		}
	}
	var ctlRTTs rttLog
	pinger := clients[0]
	for i := 1; i <= 20; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		nw.Schedule(at, func() {
			pinger.CallTo(srv.Node().ID(), "ctl.ping", nil, 16, time.Minute, &ctlRTTs)
		})
	}
	nw.Run(10 * time.Minute)
	if len(ctlRTTs) < 15 {
		t.Fatalf("only %d control pings completed", len(ctlRTTs))
	}
	var worst time.Duration
	for _, r := range ctlRTTs {
		if r > worst {
			worst = r
		}
	}
	// Unloaded RTT is ~2×(25ms+1ms)+jitter+loss-retry headroom; the bulk
	// backlog at 64 KiB × dozens over 1 Mbps is tens of seconds. Control
	// staying under 1s means the lane, not luck, carried it.
	if worst > time.Second {
		t.Fatalf("control-plane RTT reached %v under bulk saturation; lane not isolating", worst)
	}
}

// rttLog is a Completion recording the round trip of every call that
// succeeds.
type rttLog []time.Duration

func (l *rttLog) CallDone(_ any, rtt time.Duration, err error) {
	if err == nil {
		*l = append(*l, rtt)
	}
}

// TestDecisionsDeterministic replays an identical saturated world twice
// and requires the full decision sequence — admitted/queued/shed/codel
// counters and the wait histogram mass — to be bit-for-bit identical.
func TestDecisionsDeterministic(t *testing.T) {
	run := func() (int64, int64, int64, int64, float64) {
		nw, srv, clients := world(99, 25)
		s := New(srv, enabledCfg())
		blob := make([]byte, 24<<10)
		s.Protect("blob.get", func(from simnet.NodeID, req any) (any, int) { return blob, len(blob) })
		for round := 0; round < 6; round++ {
			at := time.Duration(round) * 80 * time.Millisecond
			for _, c := range clients {
				c := c
				nw.Schedule(at, func() {
					c.Call(srv.Node().ID(), "blob.get", nil, 64, time.Minute, func(any, error) {})
				})
			}
		}
		nw.Run(2 * time.Minute)
		r := srv.Node().Obs()
		return r.Counter("overload.admitted").Value(), r.Counter("overload.queued").Value(),
			r.Counter("overload.shed").Value(), r.Counter("overload.codel.dropped").Value(),
			r.Histogram("overload.queue.wait_s").Sum()
	}
	a1, q1, s1, c1, w1 := run()
	a2, q2, s2, c2, w2 := run()
	if a1 != a2 || q1 != q2 || s1 != s2 || c1 != c2 || w1 != w2 {
		t.Fatalf("decision sequence not deterministic: (%d,%d,%d,%d,%v) vs (%d,%d,%d,%d,%v)",
			a1, q1, s1, c1, w1, a2, q2, s2, c2, w2)
	}
}

// TestHintLadderScalesWithPressure drives the queue from empty to full
// and checks that shed hints are drawn from the pressure ladder: deeper
// queue, larger RetryAfter.
func TestHintLadderScalesWithPressure(t *testing.T) {
	nw, srv, clients := world(5, 64)
	cfg := enabledCfg()
	cfg.QueueLen = 8
	cfg.RetryAfterBase = 250 * time.Millisecond
	s := New(srv, cfg)
	blob := make([]byte, 48<<10)
	s.Protect("blob.get", func(from simnet.NodeID, req any) (any, int) { return blob, len(blob) })
	var hints []time.Duration
	for i, c := range clients {
		c := c
		nw.Schedule(time.Duration(i)*time.Millisecond, func() {
			c.Call(srv.Node().ID(), "blob.get", nil, 64, 5*time.Minute, func(resp any, err error) {
				if err == nil && isShed(resp) {
					hints = append(hints, resp.(Shed).RetryAfter)
				}
			})
		})
	}
	nw.Run(5 * time.Minute)
	if len(hints) == 0 {
		t.Fatal("no sheds at 8× oversubscription")
	}
	min, max := hints[0], hints[0]
	for _, h := range hints {
		if h < min {
			min = h
		}
		if h > max {
			max = h
		}
	}
	if min < cfg.RetryAfterBase || max > cfg.RetryAfterBase<<5 {
		t.Fatalf("hints [%v, %v] escape the ladder [%v, %v]", min, max, cfg.RetryAfterBase, cfg.RetryAfterBase<<5)
	}
	if max == min {
		t.Fatalf("hints never scaled with pressure (all %v)", min)
	}
}

// TestRingQueue pins the ring's FIFO and bound behaviour directly.
// TestMultiplicativeCut holds dequeue waits above the SLO and follows the
// AIMD decrease in observeWait: the first slow wait halves the limit, further
// ones inside the same SLO window leave it alone, each later window halves
// it once more, and it stops at MinLimit. A wait of exactly the SLO is
// within it and raises the limit instead.
func TestMultiplicativeCut(t *testing.T) {
	_, srv, _ := world(1, 0)
	cfg := enabledCfg()
	cfg.MinLimit, cfg.MaxLimit = 4, 32
	s := New(srv, cfg)
	s.limit = 24
	slow := cfg.SLO + time.Millisecond
	check := func(step string, want float64) {
		t.Helper()
		if s.limit != want || s.Limit() != want || s.m.limit.Value() != want {
			t.Fatalf("%s: limit %v (Limit %v, gauge %v), want %v",
				step, s.limit, s.Limit(), s.m.limit.Value(), want)
		}
	}
	t0 := 10 * time.Second
	s.observeWait(slow, t0)
	check("first slow wait", 12)
	for _, at := range []time.Duration{t0, t0 + time.Millisecond, t0 + cfg.SLO - 1} {
		s.observeWait(slow, at)
	}
	check("slow waits inside the same SLO window", 12)
	s.observeWait(slow, t0+cfg.SLO)
	check("one SLO window later", 6)
	s.observeWait(slow, t0+2*cfg.SLO)
	check("a cut to below MinLimit", 4)
	s.observeWait(slow, t0+3*cfg.SLO)
	check("a cut at MinLimit", 4)
	s.observeWait(cfg.SLO, t0+3*cfg.SLO)
	check("a wait of exactly the SLO", 4.25)
}

func TestRingQueue(t *testing.T) {
	q := newRing(3)
	if !q.empty() || q.full() || q.depth() != 0 {
		t.Fatal("fresh ring state wrong")
	}
	for i := 0; i < 3; i++ {
		if !q.push(qItem{req: i}) {
			t.Fatalf("push %d refused", i)
		}
	}
	if !q.full() || q.push(qItem{req: 3}) {
		t.Fatal("overfull push accepted")
	}
	for i := 0; i < 3; i++ {
		it, ok := q.pop()
		if !ok || it.req.(int) != i {
			t.Fatalf("pop %d = %v, %v", i, it.req, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
	// Wrap-around keeps FIFO order.
	q.push(qItem{req: 10})
	q.push(qItem{req: 11})
	q.pop()
	q.push(qItem{req: 12})
	q.push(qItem{req: 13})
	for _, want := range []int{11, 12, 13} {
		it, _ := q.pop()
		if it.req.(int) != want {
			t.Fatalf("wrap pop = %v, want %d", it.req, want)
		}
	}
}

// isShed reports whether an RPC response payload is a shed marker.
func isShed(resp any) bool {
	_, ok := resp.(Shed)
	return ok
}

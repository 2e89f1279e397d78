package overload

import (
	"fmt"
	"time"

	"repro/internal/simnet"
)

// Server wraps one node's RPC layer with overload control. Bulk methods go
// through Protect (bounded queue + admission); control-plane methods go
// through Control (always admitted, control lane). A Server built from a
// zero Config is a passthrough: Protect degrades to plain RPCNode.Serve,
// and the lanes Control and MarkControl stamp are inert because only an
// enabled Server turns on the node's priority uplink.
//
// The admission hot path is allocation-free in steady state: requests park
// in a preallocated ring as plain values, service-completion timers run
// through the engine's closure-free AfterCall path with the Server itself
// as the argument, and shed replies reuse pre-boxed hint payloads.
type Server struct {
	cfg Config
	rpc *simnet.RPCNode
	n   *simnet.Node
	m   *metricsBundle

	q ring

	// AIMD state. limit is the concurrency limit as a float so additive
	// increase can accumulate sub-integer credit (+1/limit per in-SLO
	// completion ≈ +1 per round of the current window, the classic TCP
	// shape); lastCut rate-limits multiplicative decrease to once per SLO
	// window so a single burst costs a single halving.
	limit     float64
	inService int
	lastCut   time.Duration

	// svcEWMA is the smoothed per-reply service (uplink serialization)
	// time in seconds, feeding the early-rejection estimate.
	svcEWMA float64

	// shedHints holds pre-boxed Shed payloads, one per hint level, so a
	// shed reply costs no allocation.
	shedHints [6]any
}

// New builds overload control for r. The zero Config returns a passthrough
// Server; an enabled Config turns on the node's priority uplink and
// registers the overload.* metric bundle.
func New(r *simnet.RPCNode, cfg Config) *Server {
	s := &Server{rpc: r, n: r.Node()}
	if !cfg.Enabled {
		return s
	}
	if cfg.QueueLen < 1 || cfg.Target <= 0 || cfg.SLO <= 0 || cfg.RetryAfterBase <= 0 ||
		cfg.MinLimit < 1 || cfg.MaxLimit < cfg.MinLimit {
		panic(fmt.Sprintf("overload: an enabled Config needs every field positive and MaxLimit >= MinLimit, got %+v", cfg))
	}
	s.cfg = cfg
	s.m = metricsFor(s.n.Obs())
	s.q = newRing(s.cfg.QueueLen)
	s.limit = float64(s.cfg.MinLimit)
	s.lastCut = -s.cfg.SLO
	for i := range s.shedHints {
		s.shedHints[i] = Shed{RetryAfter: s.cfg.RetryAfterBase << i}
	}
	s.n.SetPriorityUplink(true)
	s.m.limit.Set(s.limit)
	return s
}

// Limit returns the current AIMD concurrency limit (0 when passthrough).
//
//reach:the root property test bounds the AIMD limit under random load
func (s *Server) Limit() float64 {
	if s.m == nil {
		return 0
	}
	return s.limit
}

// Protect registers a bulk-lane method behind the overload queue. The
// inner handler h runs when the request is admitted — immediately when a
// service slot is free, after a queue wait otherwise — and its reply is
// sent through the usual RPC path. On a passthrough Server this is
// exactly RPCNode.Serve. h is bound into the admission handler here, once,
// and travels with a queued request, so admission looks nothing up.
func (s *Server) Protect(method string, h simnet.RPCHandler) {
	if s.m == nil {
		s.rpc.Serve(method, h)
		return
	}
	s.rpc.ServeDeferred(method, func(_ simnet.NodeID, req any, tok simnet.ReplyToken) {
		s.admit(h, req, tok)
	})
}

// Control registers a control-plane method: always admitted (never queued
// or shed) and stamped onto the uplink's strict-priority control lane, so
// its replies overtake queued bulk replies.
func (s *Server) Control(method string, h simnet.RPCHandler) {
	s.rpc.Serve(method, h)
	s.rpc.SetMethodLane(method, simnet.LaneCtrl)
}

// MarkControl stamps an outbound method (one this node *calls*, e.g. a
// provider's adverts to the directory) onto the control lane without
// registering a handler, so a saturated server's own control requests
// overtake its queued bulk replies.
func (s *Server) MarkControl(method string) { s.rpc.SetMethodLane(method, simnet.LaneCtrl) }

// admit is the admission decision for one request arriving at a protected
// method served by h.
func (s *Server) admit(h simnet.RPCHandler, req any, tok simnet.ReplyToken) {
	s.m.offered.Inc()
	now := s.n.Now()
	if s.inService < s.limitInt() && s.q.empty() {
		s.m.wait.Observe(0)
		s.observeWait(0, now)
		s.startService(h, tok, req)
		return
	}
	// Early rejection: a full queue, or an estimated wait (depth × smoothed
	// service time) already past the SLO, means this request cannot be
	// served within the objective — tell the caller now, while the hint is
	// cheap, instead of after a doomed queue wait.
	if s.q.full() || s.estWait(s.q.depth()+1) > s.cfg.SLO {
		s.shedItem(tok)
		return
	}
	s.q.push(qItem{h: h, tok: tok, req: req, enq: now})
	s.m.queued.Inc()
}

// limitInt is the AIMD limit as an integer floor, never below MinLimit.
func (s *Server) limitInt() int {
	l := int(s.limit)
	if l < s.cfg.MinLimit {
		l = s.cfg.MinLimit
	}
	return l
}

// estWait estimates the queue wait of a request entering at depth d.
func (s *Server) estWait(d int) time.Duration {
	per := s.svcEWMA / float64(s.limitInt())
	return time.Duration(float64(d) * per * float64(time.Second))
}

// startService runs the inner handler and occupies a service slot until
// the reply's bytes have actually left the uplink — the backlog the reply
// joined, not just its own serialization time. Tying the slot to the
// link's real cursor is what closes the control loop: when the uplink
// falls behind, slots stay occupied longer, the AIMD limit stops
// admitting, queue sojourns grow past the target, and shedding engages —
// whereas a fixed own-size slot would let admission race arbitrarily far
// ahead of the link and never feel the congestion it is creating.
func (s *Server) startService(h simnet.RPCHandler, tok simnet.ReplyToken, req any) {
	s.m.admitted.Inc()
	resp, respSize := h(tok.From(), req)
	tok.Reply(resp, respSize)
	s.inService++
	ser := s.n.UplinkBacklog()
	if ser == 0 && s.n.Profile().UplinkBps > 0 {
		// Crashed-sender edge: the reply was dropped before serializing.
		// Charge the frame's nominal time so the slot still cycles.
		ser = time.Duration(float64((respSize+64)*8) / s.n.Profile().UplinkBps * float64(time.Second))
	}
	// Smooth the observed service time (α = 1/8, split into statements so
	// no FMA contraction can perturb cross-platform determinism).
	d := ser.Seconds() - s.svcEWMA
	s.svcEWMA += d * 0.125
	s.n.AfterCall(ser, serviceDoneEvent, s)
}

// serviceDoneEvent fires when a reply's serialization window closes; arg
// is the Server itself, so completion allocates nothing.
func serviceDoneEvent(arg any) {
	s := arg.(*Server)
	s.inService--
	s.drain()
}

// drain admits queued work into freed service slots, shedding from the
// front any request whose sojourn already exceeds the CoDel target.
func (s *Server) drain() {
	for s.inService < s.limitInt() {
		it, ok := s.q.pop()
		if !ok {
			return
		}
		now := s.n.Now()
		wait := now - it.enq
		s.observeWait(wait, now)
		if wait > s.cfg.Target {
			// Drop-from-front: the caller has waited past the target; a
			// stale reply would race its timeout. Shed with a hint instead.
			s.m.codel.Inc()
			s.shedItem(it.tok)
			continue
		}
		s.m.wait.Observe(wait.Seconds())
		s.startService(it.h, it.tok, it.req)
	}
}

// observeWait feeds one dequeue wait into the AIMD controller.
func (s *Server) observeWait(wait time.Duration, now time.Duration) {
	if wait <= s.cfg.SLO {
		if s.limit < float64(s.cfg.MaxLimit) {
			s.limit += 1 / s.limit
			if s.limit > float64(s.cfg.MaxLimit) {
				s.limit = float64(s.cfg.MaxLimit)
			}
		}
	} else if now-s.lastCut >= s.cfg.SLO {
		s.lastCut = now
		s.limit *= 0.5
		if s.limit < float64(s.cfg.MinLimit) {
			s.limit = float64(s.cfg.MinLimit)
		}
	}
	s.m.limit.Set(s.limit)
}

// shedItem sends the pre-boxed Shed reply whose RetryAfter level tracks
// queue pressure: an empty queue sheds the base hint, a full one the top
// of the ladder — so the busier the server, the wider its callers spread.
func (s *Server) shedItem(tok simnet.ReplyToken) {
	lvl := 0
	if s.cfg.QueueLen > 0 {
		lvl = s.q.depth() * (len(s.shedHints) - 1) / s.cfg.QueueLen
		if lvl >= len(s.shedHints) {
			lvl = len(s.shedHints) - 1
		}
	}
	s.m.shed.Inc()
	tok.Reply(s.shedHints[lvl], shedRespSize)
}

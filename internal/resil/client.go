package resil

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/simnet"
)

// ErrSuspected is the fast-fail cause reported when an open breaker
// refuses a call locally instead of burning a timeout on a suspected-dead
// peer. Matchable with errors.Is.
var ErrSuspected = errors.New("resil: peer suspected down")

// Client wraps a simnet RPC endpoint with the resilience layer: adaptive
// per-peer RTO, bounded retries with deterministic backoff, per-peer
// circuit breaking, and hedged requests. One Client serves one caller
// node; peer state (estimator and breaker together) is keyed by target
// node id, so a call probes the map once.
type Client struct {
	rpc   *simnet.RPCNode
	cfg   Config
	bo    Backoff
	peers map[simnet.NodeID]*peerState
	// global aggregates every sample across peers; it seeds fresh per-peer
	// estimators so a never-contacted peer starts from the client's measured
	// reality instead of the cold-start rtoInitial.
	global *Estimator
	m      *resilMetrics
	// mShed counts classified sheds. Created lazily on the first shed —
	// not in the eager Memo bundle — so runs that never see a shed (every
	// pre-X20 golden) keep their exported metric set unchanged.
	mShed *obs.Counter
	seq   uint64 // per-client operation counter, keys backoff jitter
}

// resilMetrics is the package's network-scoped metric bundle, resolved
// once per registry via Memo (see DESIGN.md §6 for the name table).
type resilMetrics struct {
	rto         *obs.Histogram
	hedgeFired  *obs.Counter
	hedgeWon    *obs.Counter
	breakerOpen *obs.Counter
	retries     *obs.Counter
	fastfail    *obs.Counter
}

func metricsFor(r *obs.Registry) *resilMetrics {
	return r.Memo("resil", func() any {
		return &resilMetrics{
			rto:         r.Histogram("resil.rto_s"),
			hedgeFired:  r.Counter("resil.hedge.fired"),
			hedgeWon:    r.Counter("resil.hedge.won"),
			breakerOpen: r.Counter("resil.breaker.open"),
			retries:     r.Counter("resil.retry.count"),
			fastfail:    r.Counter("resil.fastfail.count"),
		}
	}).(*resilMetrics)
}

var _ simnet.Caller = (*Client)(nil)

const (
	// maxAttempts bounds the timeout-driven tries per operation, the first
	// included and a hedge not counted: two retransmits ride out a lost
	// request and then a lost retry.
	maxAttempts = 3
	// hedgeMinSamples is how many RTT samples a peer's estimator needs
	// before the client hedges against it: hedging blind would double
	// traffic for nothing.
	hedgeMinSamples = 4
	// hedgeMinDelay floors the hedge launch delay so a microsecond-scale
	// p95 estimate cannot degenerate into always-hedge.
	hedgeMinDelay = 50 * time.Millisecond
)

// Wrap returns the Caller a layer should hold for cfg: rpc itself when
// cfg.Enabled is false, so the layer's calls are raw RPCs with the caller's
// fixed timeout and construction registers no metric and allocates
// nothing; otherwise New(rpc, cfg).
func Wrap(rpc *simnet.RPCNode, cfg Config) simnet.Caller {
	if !cfg.Enabled {
		return rpc
	}
	return New(rpc, cfg)
}

// New wraps rpc with the resilience layer, classifying replies with
// cfg.Classify. It builds the layer whatever cfg.Enabled says; a config
// that may be off goes through Wrap.
func New(rpc *simnet.RPCNode, cfg Config) *Client {
	node := rpc.Node()
	c := &Client{rpc: rpc, cfg: cfg}
	c.bo = NewBackoff(node.Network().Seed(), node.ID())
	c.peers = map[simnet.NodeID]*peerState{}
	c.global = NewEstimator()
	c.m = metricsFor(node.Obs())
	return c
}

// Node returns the caller's simulated node.
func (c *Client) Node() *simnet.Node { return c.rpc.Node() }

// peerState is what the Client knows about one peer.
type peerState struct {
	est Estimator
	brk Breaker
}

// peer returns id's state, creating it on the peer's first call. The
// estimator takes its prior from global here, which is the peer's first
// launch: a fresh breaker is closed, so a first call always launches, and
// a breaker fast-fail can only refuse a peer that already has state.
func (c *Client) peer(id simnet.NodeID) *peerState {
	ps, ok := c.peers[id]
	if !ok {
		ps = &peerState{est: *NewEstimator(), brk: *NewBreaker()}
		if c.global.Samples() > 0 {
			ps.est.SeedPrior(c.global.RTO())
		}
		c.peers[id] = ps
	}
	return ps
}

// PeerSRTT returns the smoothed round-trip estimate for a peer, and
// whether one exists: false when the peer has never contributed a sample
// (the cold-start rtoInitial is a guess, not a measurement, so it is not
// reported). Nearest-replica routing in internal/replic ranks holders on
// exactly this.
func (c *Client) PeerSRTT(id simnet.NodeID) (time.Duration, bool) {
	ps, ok := c.peers[id]
	if !ok || ps.est.Samples() == 0 {
		return 0, false
	}
	return ps.est.SRTT(), true
}

// Call is CallTo with a plain callback; the signature mirrors
// RPCNode.Call so subsystems swap it in without restructuring.
func (c *Client) Call(to simnet.NodeID, method string, req any, reqSize int, fallback time.Duration, done func(resp any, err error)) {
	c.CallTo(to, method, req, reqSize, fallback, simnet.CallFunc(done))
}

// CallTo issues a resilient request to the target's method. done receives
// the outcome exactly once, with the winning attempt's round trip on
// success. fallback, the timeout a raw RPCNode would use, is ignored: the
// adaptive RTO takes over entirely.
//
// Per operation: an open breaker fails fast (still asynchronously,
// preserving callback ordering); otherwise attempts are issued with the
// peer's current RTO as timeout, a timeout schedules the next attempt
// after a jittered backoff up to maxAttempts, and on the first attempt a
// single hedge may be launched at the estimated p95 — first response wins
// and the loser is cancelled through its CallRef so its Completion never
// fires. The operation cancels its own attempts, so the returned CallRef
// is the inert zero value.
func (c *Client) CallTo(to simnet.NodeID, method string, req any, reqSize int, fallback time.Duration, done simnet.Completion) simnet.CallRef {
	ps := c.peer(to)
	node := c.rpc.Node()
	if !ps.brk.Allow(node.Now()) {
		c.m.fastfail.Inc()
		err := fmt.Errorf("resil: call %s to node %d refused: %w", method, to, ErrSuspected)
		node.After(0, func() { done.CallDone(nil, 0, err) })
		return simnet.CallRef{}
	}
	c.seq++
	o := opPool.Get()
	o.c, o.ps, o.to, o.id = c, ps, to, c.seq
	o.method, o.req, o.reqSize, o.done = method, req, reqSize, done
	o.launch(false)
	return simnet.CallRef{}
}

// opPool recycles ops. An op goes back only once it is finished and no
// attempt can still complete through it: inflight counts the attempts whose
// Completion has yet to fire, and a successful CallRef.Cancel in finish
// takes an attempt out of flight. An attempt finish cannot cancel — an old
// primary whose CallRef a retry overwrote — keeps the op out of the pool
// until it completes.
var opPool = pool.New[op]("resil.op", nil)

// op is one resilient operation: up to maxAttempts timeout-driven
// attempts plus at most one hedge, sharing a single Completion. The op is
// itself the Completion of its timeout-driven attempts, and
// (*hedgeLeg)(op) that of its hedge, so no attempt allocates a callback;
// ops themselves come from opPool.
type op struct {
	c       *Client
	ps      *peerState
	to      simnet.NodeID
	method  string
	req     any
	reqSize int
	done    simnet.Completion
	id      uint64

	attempts     int  // timeout-driven attempts launched (1 = primary)
	hedged       bool // hedge launched
	retrans      bool // Karn: some attempt was retransmitted
	retryPending bool // a backoff timer is armed
	finished     bool
	pool.Mark
	inflight   int            // attempts whose Completion has yet to fire
	primary    simnet.CallRef // newest timeout-driven attempt
	hedge      simnet.CallRef
	hedgeTimer simnet.Timer
	retryTimer simnet.Timer
	lastErr    error
}

// hedgeLeg is an op seen as the Completion of its hedge attempt.
type hedgeLeg op

// CallDone completes a timeout-driven attempt.
func (o *op) CallDone(resp any, rtt time.Duration, err error) { o.complete(false, resp, rtt, err) }

// CallDone completes the hedge attempt.
func (h *hedgeLeg) CallDone(resp any, rtt time.Duration, err error) {
	(*op)(h).complete(true, resp, rtt, err)
}

// hedgeEvent and retryEvent are the timer callbacks; arg is the *op, so
// arming a timer allocates nothing.
func hedgeEvent(arg any) { arg.(*op).fireHedge() }
func retryEvent(arg any) { arg.(*op).fireRetry() }

func (o *op) launch(isHedge bool) {
	c, est := o.c, &o.ps.est
	rto := est.RTO()
	c.m.rto.Observe(rto.Seconds())
	o.inflight++
	if isHedge {
		o.hedge = c.rpc.CallTo(o.to, o.method, o.req, o.reqSize, rto, (*hedgeLeg)(o))
		return
	}
	o.attempts++
	o.primary = c.rpc.CallTo(o.to, o.method, o.req, o.reqSize, rto, o)
	if o.attempts == 1 && est.Samples() >= hedgeMinSamples {
		delay := est.P95()
		if delay < hedgeMinDelay {
			delay = hedgeMinDelay
		}
		// A hedge at or past the RTO is pointless: the retransmit path
		// already covers that region.
		if delay < rto {
			o.hedgeTimer = c.rpc.Node().AfterCall(delay, hedgeEvent, o)
		}
	}
}

func (o *op) fireHedge() {
	if o.finished || o.hedged {
		return
	}
	o.hedged = true
	o.c.m.hedgeFired.Inc()
	o.launch(true)
}

func (o *op) fireRetry() {
	if o.finished {
		return
	}
	o.retryPending = false
	o.launch(false)
}

func (o *op) complete(isHedge bool, resp any, rtt time.Duration, err error) {
	o.inflight--
	if o.finished {
		// A straggler the finish could not cancel; the last one frees the op.
		if o.inflight == 0 {
			opPool.Put(o)
		}
		return
	}
	c := o.c
	if err == nil {
		if c.cfg.Classify != nil {
			if cerr := c.cfg.Classify(resp); cerr != nil {
				o.completeShed(cerr)
				return
			}
		}
		o.ps.brk.Success()
		// Karn's rule: an operation that retransmitted feeds no sample —
		// with a doubled RTO in force, locking in samples measured under
		// backoff would keep the estimator self-confirming. A hedge
		// completion does sample: call ids make the reply-to-attempt
		// mapping unambiguous, and the p95 estimate needs exactly these
		// tail data points.
		if !o.retrans {
			o.ps.est.Sample(rtt)
			c.global.Sample(rtt)
		}
		if isHedge {
			c.m.hedgeWon.Inc()
		}
		o.finish(resp, rtt, nil)
		return
	}
	o.lastErr = err
	now := c.rpc.Node().Now()
	if o.ps.brk.Failure(now) {
		c.m.breakerOpen.Inc()
	}
	if !errors.Is(err, simnet.ErrRPCTimeout) {
		// A refusal (ErrNotServed) is the peer's deterministic answer and a
		// caller crash (ErrCallerCrashed) voids the whole operation:
		// neither is worth retrying. Any sibling attempt still in flight
		// gets to finish first.
		if o.inflight == 0 && !o.retryPending {
			o.finish(nil, 0, err)
		}
		return
	}
	o.ps.est.OnTimeout()
	if o.attempts < maxAttempts && !o.retryPending {
		o.retryPending = true
		o.retrans = true
		c.m.retries.Inc()
		o.retryTimer = c.rpc.Node().AfterCall(c.bo.Delay(o.id, o.attempts), retryEvent, o)
		return
	}
	if o.inflight == 0 && !o.retryPending {
		o.finish(nil, 0, o.lastErr)
	}
}

// retryAfterHinter is the structural contract a classified error may
// implement to pace the retry; *overload.ErrOverloaded satisfies it. The
// interface lives here (and is matched structurally) so resil and
// overload need not import each other.
type retryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// completeShed handles a classified server shed: a deliberate,
// explicitly-retryable refusal from a live peer. The breaker records a
// success, the estimator is left alone (Karn's retrans flag stays clear
// too — the eventual data reply is an unambiguous, clean sample), and the
// next attempt waits max(server hint, backoff). Exhausted attempts fail
// the operation with the classified error so callers can fail over.
func (o *op) completeShed(cerr error) {
	c := o.c
	o.ps.brk.Success()
	if c.mShed == nil {
		c.mShed = c.rpc.Node().Obs().Counter("resil.shed.count")
	}
	c.mShed.Inc()
	o.lastErr = cerr
	if o.attempts < maxAttempts && !o.retryPending {
		delay := c.bo.Delay(o.id, o.attempts)
		if h, ok := cerr.(retryAfterHinter); ok {
			if hint := h.RetryAfterHint(); hint > delay {
				delay = hint
			}
		}
		o.retryPending = true
		c.m.retries.Inc()
		o.retryTimer = c.rpc.Node().AfterCall(delay, retryEvent, o)
		return
	}
	if o.inflight == 0 && !o.retryPending {
		o.finish(nil, 0, o.lastErr)
	}
}

// finish completes the operation exactly once: pending timers are
// cancelled, the losing attempt (if any) is cancelled through its CallRef
// so its Completion never fires, and only then does the caller's done run —
// it may re-enter the Client immediately. With no attempt left in flight
// the op is back in the pool before done runs, so a re-entrant call can
// reuse it.
func (o *op) finish(resp any, rtt time.Duration, err error) {
	o.finished = true
	o.hedgeTimer.Cancel()
	o.retryTimer.Cancel()
	if o.primary.Cancel() {
		o.inflight--
	}
	if o.hedge.Cancel() {
		o.inflight--
	}
	done := o.done
	if o.inflight == 0 {
		opPool.Put(o)
	}
	done.CallDone(resp, rtt, err)
}

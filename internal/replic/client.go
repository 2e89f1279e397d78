package replic

import (
	"errors"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// ErrNoReplica is the terminal fetch failure: every candidate holder was
// tried and none produced the object.
var ErrNoReplica = errors.New("replic: no holder produced the object")

// hedgeAfter is how long a client waits on the nearest holder before
// hedging to the second-nearest (across holders, composing with per-peer
// resilience below). One second, resil's initial RTO, is far above a
// healthy round trip and no later than a cold first attempt times out.
const hedgeAfter = time.Second

// Client fetches objects by nearest-replica routing. Disabled it is the
// static baseline: ask the directory for holders, then try them in
// directory order (origin first) with the caller's fixed timeout — the
// X18-style single-path fetch. Enabled it ranks the holder list with the
// Router (measured SRTT first, region matrix as prior), fetches from the
// nearest, hedges to the second-nearest after hedgeAfter, and fails over
// down the ranking until a holder answers.
type Client struct {
	cfg    Config
	rpc    simnet.Caller // resil.Wrap'd when the layer is enabled
	dir    simnet.NodeID
	router *Router
	m      *replicMetrics
}

// NewClient wires a fetch client onto node. self is the client's home
// region; regionOf and extra mirror the simnet region matrix (extra may be
// nil for a flat geography).
func NewClient(node *simnet.Node, cfg Config, dir simnet.NodeID, self int, regionOf map[simnet.NodeID]int, extra [][]time.Duration) *Client {
	cfg = cfg.withDefaults()
	rpc := simnet.NewRPCNode(node)
	c := &Client{cfg: cfg, rpc: rpc, dir: dir}
	if cfg.Enabled {
		c.rpc = resil.Wrap(rpc, cfg.Resilience)
		var srtt func(simnet.NodeID) (time.Duration, bool)
		if rc, ok := c.rpc.(*resil.Client); ok {
			srtt = rc.PeerSRTT
		}
		c.router = NewRouter(self, regionOf, extra, srtt)
		c.m = metricsFor(node.Obs())
	}
	return c
}

// Node returns the client's simnet node.
func (c *Client) Node() *simnet.Node { return c.rpc.Node() }

// Get fetches obj: resolve holders through the directory, then fetch per
// the configured policy. timeout bounds each directory/fetch RPC (it is
// the whole budget per attempt, not for the operation — failover makes
// more attempts). done receives the payload or a terminal error.
func (c *Client) Get(obj cryptoutil.Hash, timeout time.Duration, done func(data []byte, err error)) {
	f := fetchPool.Get().(*fetch)
	if poolHook != nil {
		poolHook(f, true)
	}
	*f = fetch{c: c, req: obj, timeout: timeout, done: done, inflight: 1} // in flight: the directory call
	c.rpc.CallTo(c.dir, methodHolders, f.req, 40, timeout, f)
}

// fetch is one replica-fetch operation: sequential failover down the
// ranked holder list, plus (enabled only) one hedge to the second-ranked
// holder if the nearest has not answered within hedgeAfter. First
// successful response wins; late losers are ignored. The fetch is the
// Completion of its directory call, and each holder attempt completes
// through one of its two legs. Fetches come from fetchPool.
type fetch struct {
	c *Client
	// req is the object's hash, boxed once for every call. It is a request,
	// so it is never pooled: an attempt that timed out may still reach its
	// holder after the fetch has been recycled.
	req any
	// hr is the directory's answer; holders is its list, ranked in place.
	hr      *holdersResp
	holders []simnet.NodeID
	timeout time.Duration
	done    func([]byte, error)
	// legs hold the attempts in flight: at most two, the primary's line of
	// failover and the hedge's. A failed attempt's successor may take
	// either free leg, since a hedge can fail while the primary is still
	// out.
	legs [2]fetchLeg

	next       int // index of the next holder to try
	inflight   int // the directory call and holder attempts yet to return
	finished   bool
	hedged     bool
	hedgeTimer simnet.Timer
	lastErr    error
}

// fetchPool recycles fetches. A fetch goes back once it is finished and
// its directory call and every leg have returned (inflight == 0): a leg
// that loses to the winner still lands on the fetch when it answers.
var fetchPool = sync.Pool{New: func() any { return new(fetch) }}

// release returns a spent fetch, and the directory's answer it holds, to
// their pools.
func (f *fetch) release() {
	if poolHook != nil {
		poolHook(f, false)
	}
	if f.hr != nil {
		f.hr.release()
	}
	*f = fetch{}
	fetchPool.Put(f)
}

// fetchLeg is the Completion of one holder attempt.
type fetchLeg struct {
	f    *fetch
	i    int // the holder's rank
	busy bool
}

// CallDone completes the directory call: rank the holders and start
// fetching.
func (f *fetch) CallDone(resp any, _ time.Duration, err error) {
	f.inflight--
	if err != nil {
		f.finish(0, nil, err)
		return
	}
	hr, _ := resp.(*holdersResp)
	if hr == nil {
		f.finish(0, nil, ErrNoReplica)
		return
	}
	// The directory's answer is this fetch's until it is recycled, so
	// ranking permutes the list in place.
	c := f.c
	f.hr, f.holders = hr, hr.Holders
	if len(f.holders) == 0 {
		f.finish(0, nil, ErrNoReplica)
		return
	}
	if c.cfg.Enabled {
		f.holders = c.router.Rank(f.holders)
	}
	f.launch(0)
	if c.cfg.Enabled && len(f.holders) > 1 {
		f.hedgeTimer = c.Node().AfterCall(hedgeAfter, fetchHedgeEvent, f)
	}
}

// CallDone completes the leg's holder attempt and frees the leg.
func (l *fetchLeg) CallDone(resp any, _ time.Duration, err error) {
	l.busy = false
	l.f.complete(l.i, resp, err)
}

func fetchHedgeEvent(arg any) { arg.(*fetch).fireHedge() }

func (f *fetch) launch(i int) {
	if i >= len(f.holders) {
		return
	}
	f.next = i + 1
	f.inflight++
	l := &f.legs[0]
	if l.busy {
		l = &f.legs[1]
	}
	l.f, l.i, l.busy = f, i, true
	f.c.rpc.CallTo(f.holders[i], methodGet, f.req, 40, f.timeout, l)
}

// fireHedge launches the fetch to the next-ranked holder if the earlier
// attempt is still unanswered. This is replica-level hedging — across
// holders — distinct from (and composing with) the resilience layer's
// same-peer hedge.
func (f *fetch) fireHedge() {
	if f.finished || f.hedged || f.next >= len(f.holders) {
		return
	}
	f.hedged = true
	f.c.m.hedgeFired.Inc()
	f.launch(f.next)
}

func (f *fetch) complete(i int, resp any, err error) {
	f.inflight--
	if f.finished {
		// A losing leg; the last to return frees the fetch.
		if f.inflight == 0 {
			f.release()
		}
		return
	}
	if err == nil {
		if r, ok := resp.(*getResp); ok && r.OK {
			f.finish(i, r.Data, nil)
			return
		}
		err = ErrNoReplica
	}
	f.lastErr = err
	if f.next < len(f.holders) {
		f.launch(f.next)
		return
	}
	if f.inflight == 0 {
		f.finish(i, nil, f.lastErr)
	}
}

// finish completes exactly once. A win by the top-ranked holder counts as
// a nearest-routing hit (only meaningful — and only counted — when the
// layer is enabled and did the ranking). With nothing left in flight the
// fetch is back in the pool before done runs.
func (f *fetch) finish(winner int, data []byte, err error) {
	f.finished = true
	f.hedgeTimer.Cancel()
	if err == nil && f.c.cfg.Enabled && winner == 0 {
		f.c.m.nearestHit.Inc()
	}
	done := f.done
	if f.inflight == 0 {
		f.release()
	}
	done(data, err)
}

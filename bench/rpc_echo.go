package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simnet"
)

// rpc_echo: a closed loop of bare RPCs on the default engine. Every node
// keeps one call outstanding to a rotating neighbour; the op is one call.

const (
	echoNodes      = 10_000
	echoNodesShort = 200
	// echoCallsPerNodeSecond sizes the measured op list: calls per node per
	// budgeted second (436 calls per node, 4.36 M calls, at -seconds 13).
	echoCallsPerNodeSecond = 33.5
	// echoWarmShare is the warm-up's length as a share of the measured list.
	echoWarmShare  = 0.3
	echoMethod     = "bench.echo"
	echoReqBytes   = 16
	echoReplyBytes = 8
	echoTimeout    = 5 * time.Second
	// echoOffsets is how many neighbour offsets a node rotates through.
	echoOffsets = 16
)

var rpcEchoWorkload = workloadDef{
	name:  "rpc_echo",
	why:   "smallest message, no protocol code: engine heap, substrate send/deliver and RPC envelope/pending/timeout handling do all the work; the bypass for every protocol- and stack-layer optimisation",
	build: buildRPCEcho,
}

// echoReq is the request payload, boxed once so that issuing a call
// allocates nothing in the harness.
var echoReq any = [echoReqBytes]byte{}

type echoSim struct {
	nw      *simnet.Network
	st      *opStats
	callers []*echoCaller
	offsets [echoOffsets]int
	// quota is the calls each node makes in the current phase.
	quota int
	// base is the measured phase's virtual start and perCall the virtual
	// time one call of the loop takes, as the warm-up saw it: together they
	// place the slices of a traced run (the loop itself drains by RunAll).
	base, perCall time.Duration
}

// echoCaller is one node's closed loop: done resolves the outstanding call
// and issues the next one until the node's quota is used up.
type echoCaller struct {
	s      *echoSim
	idx    int
	rpc    *simnet.RPCNode
	made   int
	sentAt time.Duration
	done   func(resp any, err error)
}

func (c *echoCaller) call() {
	s := c.s
	to := (c.idx + s.offsets[c.made%echoOffsets]) % len(s.callers)
	c.sentAt = c.rpc.Node().Now()
	c.rpc.Call(s.callers[to].rpc.Node().ID(), echoMethod, echoReq, echoReqBytes, echoTimeout, c.done)
}

func (c *echoCaller) onDone(_ any, err error) {
	s := c.s
	s.st.resolve(c.made*len(s.callers)+c.idx, err == nil, c.rpc.Node().Now()-c.sentAt)
	if c.made++; c.made < s.quota {
		c.call()
	}
}

func buildRPCEcho(c runConfig, st *opStats, tr *tracer) sim {
	n := echoNodes
	if c.short {
		n = echoNodesShort
	}
	s := &echoSim{nw: simnet.New(c.seed), st: st, callers: make([]*echoCaller, n)}
	tr.do("simnet.AddNode+NewRPCNode", n, func() {
		for i := range s.callers {
			rpc := simnet.NewRPCNode(s.nw.AddNode())
			rpc.Serve(echoMethod, func(_ simnet.NodeID, req any) (any, int) { return req, echoReplyBytes })
			ec := &echoCaller{s: s, idx: i, rpc: rpc}
			ec.done = ec.onDone
			s.callers[i] = ec
		}
	})
	// The neighbour rotation is the workload's generated input.
	rng := rand.New(rand.NewSource(c.seed))
	for i := range s.offsets {
		s.offsets[i] = 1 + rng.Intn(n-1)
	}
	measured := c.quota(echoCallsPerNodeSecond, 4)
	s.warmUp(int(float64(measured)*echoWarmShare+0.5), tr)
	s.quota = measured
	return s
}

// warmUp runs a closed loop of quota calls per node to completion.
func (s *echoSim) warmUp(quota int, tr *tracer) {
	s.quota = quota
	s.st.reset(s.ops())
	start := s.nw.Now()
	s.launch()
	tr.do("simnet.RunAll", 1, s.nw.RunAll)
	s.perCall = (s.nw.Now() - start) / time.Duration(quota)
}

func (s *echoSim) net() *simnet.Network { return s.nw }
func (s *echoSim) nodes() int           { return len(s.callers) }
func (s *echoSim) ops() int             { return s.quota * len(s.callers) }

func (s *echoSim) launch() {
	s.base = s.nw.Now()
	for _, c := range s.callers {
		c.made = 0
		c.call()
	}
}

func (s *echoSim) advance(frac float64) {
	if frac >= 1 {
		s.nw.RunAll()
		return
	}
	s.nw.Run(s.base + time.Duration(frac*float64(s.perCall)*float64(s.quota)))
}

func (s *echoSim) check() error {
	if s.st.ok != s.st.attempted {
		return fmt.Errorf("rpc_echo: %d of %d calls succeeded; a lossless network must answer every call", s.st.ok, s.st.attempted)
	}
	return conserved(s.nw, 0)
}

func (s *echoSim) layer(m metricSet, r *result, fix metricSet) {
	m["rpc.timeout_share"] = float64(s.st.attempted-s.st.ok) / float64(s.st.attempted)
}

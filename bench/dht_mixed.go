package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
)

// dht_mixed: Kademlia reads and writes in an open loop on the default
// engine. One op per virtual millisecond from rotating peers; the op is one
// Get or Put of an existing key.

const (
	dhtPeers      = 10_000
	dhtPeersShort = 300
	dhtKeys       = 512
	dhtKeysShort  = 32
	// dhtOpsPerSecond sizes the measured op list: ops per budgeted second.
	dhtOpsPerSecond = 5700.0
	dhtWarmShare    = 0.12
	dhtPutShare     = 0.1
	dhtInterval     = time.Millisecond
	dhtJoinGap      = 20 * time.Millisecond
	dhtValueBytes   = 64
)

var dhtMixedWorkload = workloadDef{
	name:  "dht_mixed",
	why:   "protocol code (closest, lookup state, buckets) outweighs engine cost per message; reads and writes share the routing table, so a Get gain that costs Put shows; joins make setup_s a real bootstrap",
	build: buildDHTMixed,
}

// dhtOp is one pre-generated operation.
type dhtOp struct {
	peer int32
	key  int32
	put  bool
}

type dhtSim struct {
	nw    *simnet.Network
	st    *opStats
	peers []*dht.Peer
	keys  []dht.Key
	vals  [][]byte
	rng   *rand.Rand
	ops_  []dhtOp
	next  int
	base  time.Duration
	// gets/puts and their successes, for the per-layer shares.
	gets, getOK, puts, putOK int
	bootstrapS               float64
}

func buildDHTMixed(c runConfig, st *opStats, tr *tracer) sim {
	n, nKeys := dhtPeers, dhtKeys
	if c.short {
		n, nKeys = dhtPeersShort, dhtKeysShort
	}
	s := &dhtSim{
		nw:    simnet.New(c.seed),
		st:    st,
		peers: make([]*dht.Peer, n),
		keys:  make([]dht.Key, nKeys),
		vals:  make([][]byte, nKeys),
		rng:   rand.New(rand.NewSource(c.seed)),
	}
	cfg := dht.Config{K: 8, Alpha: 3, RequestTimeout: 2 * time.Second}
	tr.do("simnet.AddNode+dht.NewPeer", n, func() {
		for i := range s.peers {
			s.peers[i] = dht.NewPeer(s.nw.AddNode(), dht.Key{}, cfg)
		}
	})
	// Staggered joins through an anchor, as in X15.
	t0 := time.Now()
	tr.do("dht.Bootstrap", n-1, func() {
		anchor := s.peers[0].Contact()
		for i := 1; i < n; i++ {
			p := s.peers[i]
			s.nw.After(time.Duration(i)*dhtJoinGap, func() { p.Bootstrap(anchor, nil) })
		}
		tr.do("simnet.RunAll", 1, s.nw.RunAll)
	})
	s.bootstrapS = time.Since(t0).Seconds()
	tr.do("dht.Put", nKeys, func() {
		for i := range s.keys {
			s.vals[i] = make([]byte, dhtValueBytes)
			s.rng.Read(s.vals[i])
			s.keys[i] = cryptoutil.SumHash(s.vals[i])
			s.peers[s.rng.Intn(n)].Put(s.keys[i], s.vals[i], nil)
		}
		tr.do("simnet.RunAll", 1, s.nw.RunAll)
	})
	measured := c.quota(dhtOpsPerSecond, 16)
	s.generate(int(float64(measured)*dhtWarmShare + 0.5))
	st.reset(s.ops())
	s.launch()
	tr.do("simnet.RunAll", 1, func() { s.advance(1) })
	s.generate(measured)
	return s
}

// generate pre-generates the next phase's op list: peers rotate through the
// population from a seeded start, keys and the read/write choice are drawn.
func (s *dhtSim) generate(ops int) {
	s.ops_ = make([]dhtOp, ops)
	start, stride := s.rng.Intn(len(s.peers)), 1+2*s.rng.Intn(len(s.peers)/2)
	for i := range s.ops_ {
		s.ops_[i] = dhtOp{
			peer: int32((start + i*stride) % len(s.peers)),
			key:  int32(s.rng.Intn(len(s.keys))),
			put:  s.rng.Float64() < dhtPutShare,
		}
	}
	s.next = 0
	s.gets, s.getOK, s.puts, s.putOK = 0, 0, 0, 0
}

func (s *dhtSim) net() *simnet.Network { return s.nw }
func (s *dhtSim) nodes() int           { return len(s.peers) }
func (s *dhtSim) ops() int             { return len(s.ops_) }

func (s *dhtSim) launch() {
	s.base = s.nw.Now()
	s.nw.ScheduleCall(s.base, dhtNextOp, s)
}

// dhtNextOp is the open-loop generator: it launches the op that is due and
// schedules itself for the next one, whatever the state of earlier ops.
func dhtNextOp(arg any) {
	s := arg.(*dhtSim)
	id := s.next
	op := s.ops_[id]
	p := s.peers[op.peer]
	due := s.base + time.Duration(id)*dhtInterval
	if op.put {
		s.puts++
		p.Put(s.keys[op.key], s.vals[op.key], func(stored int) {
			ok := stored >= 1
			if ok {
				s.putOK++
			}
			s.st.resolve(id, ok, p.Node().Now()-due)
		})
	} else {
		s.gets++
		p.Get(s.keys[op.key], func(v []byte, found bool) {
			ok := found && len(v) == dhtValueBytes
			if ok {
				s.getOK++
			}
			s.st.resolve(id, ok, p.Node().Now()-due)
		})
	}
	if s.next++; s.next < len(s.ops_) {
		s.nw.ScheduleCall(due+dhtInterval, dhtNextOp, s)
	}
}

func (s *dhtSim) advance(frac float64) {
	if frac >= 1 {
		s.nw.RunAll()
		return
	}
	s.nw.Run(s.base + time.Duration(frac*float64(len(s.ops_))*float64(dhtInterval)))
}

func (s *dhtSim) check() error {
	if share := float64(s.st.ok) / float64(s.st.attempted); share < 0.97 {
		return fmt.Errorf("dht_mixed: %.4f of ops succeeded; must reach 0.97", share)
	}
	return conserved(s.nw, 0)
}

func (s *dhtSim) layer(m metricSet, r *result, fix metricSet) {
	m["dht.bootstrap_s"] = s.bootstrapS
	m["dht.self_ns_per_msg"] = r.nsPerMsg() - fix["fixture.rpc_ns_per_msg"]
	m["dht.store.sent_per_put"] = ratio(r.counterDelta("dht.store.sent"), float64(s.puts))
	m["dht.get_ok_share"] = ratio(float64(s.getOK), float64(s.gets))
	m["dht.put_ok_share"] = ratio(float64(s.putOK), float64(s.puts))
	var table int
	for _, p := range s.peers {
		table += p.TableSize()
	}
	m["dht.table_size_mean"] = float64(table) / float64(len(s.peers))
}

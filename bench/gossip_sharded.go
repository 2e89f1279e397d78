package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/gossip"
	"repro/internal/simnet"
)

// gossip_sharded: epidemic broadcast with anti-entropy on the sharded
// engine. Items are published in batches; the op is one (member, item)
// delivery.

const (
	gossipMembers      = 100_000
	gossipMembersShort = 2_000
	gossipShards       = 64
	// gossipItemsPerSecond sizes the measured op list: items published per
	// budgeted second, each worth one delivery per member.
	gossipItemsPerSecond = 0.92
	// gossipWarmItems is the warm-up's length in items.
	gossipWarmItems = 4
	gossipBatch     = 4
	gossipGap       = 5 * time.Second  // between the items of a batch
	gossipQuiet     = 60 * time.Second // after a batch: anti-entropy only
	gossipItemBytes = 64
)

var gossipShardedWorkload = workloadDef{
	name:  "gossip_sharded",
	why:   "the engine used differently from rpc_echo: 64 shards, 10x the population, long sparse stretches where the window barrier dominates; a barrier gain shows here and not on rpc_echo",
	build: buildGossipSharded,
}

type gossipSim struct {
	nw      *simnet.Network
	st      *opStats
	members []*gossip.Member
	rng     *rand.Rand
	// items of the current phase, with their virtual publish times.
	items []gossip.Item
	pubAt []time.Duration
	// first is the serial number of the phase's first item; an item's Data
	// is its serial number, which is how a delivery finds its op id.
	first, serial int
	base, end     time.Duration
}

func buildGossipSharded(c runConfig, st *opStats, tr *tracer) sim {
	n := gossipMembers
	if c.short {
		n = gossipMembersShort
	}
	s := &gossipSim{
		nw:      simnet.NewWithConfig(simnet.NetworkConfig{Seed: c.seed, Shards: gossipShards, Workers: 1}),
		st:      st,
		members: make([]*gossip.Member, n),
		rng:     rand.New(rand.NewSource(c.seed)),
	}
	tr.do("simnet.AddNode+gossip.NewMember", n, func() {
		for i := range s.members {
			node := s.nw.AddNode()
			m := gossip.NewMember(node, gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
			idx := i
			m.OnDeliver(func(it gossip.Item) { s.delivered(idx, node, it) })
			s.members[i] = m
		}
	})
	// X15's chord overlay: ring plus power-of-two long links, degree <= 8.
	tr.do("gossip.SetPeers", n, func() {
		var offs []int
		for off := 1; off < n && len(offs) < 8; off *= 2 {
			offs = append(offs, off)
		}
		for i, m := range s.members {
			peers := make([]simnet.NodeID, len(offs))
			for j, off := range offs {
				peers[j] = s.members[(i+off)%n].Node().ID()
			}
			m.SetPeers(peers)
		}
	})
	s.generate(gossipWarmItems)
	st.reset(s.ops())
	s.launch()
	tr.do("simnet.Run", 1, func() { s.advance(1) })
	s.generate(c.quota(gossipItemsPerSecond, 1))
	return s
}

// generate pre-generates the next phase's items and publish schedule
// (relative to the phase start).
func (s *gossipSim) generate(items int) {
	s.first = s.serial
	s.items = make([]gossip.Item, items)
	s.pubAt = make([]time.Duration, items)
	var at time.Duration
	for i := range s.items {
		var data [gossipItemBytes]byte
		s.rng.Read(data[:])
		s.items[i] = gossip.Item{ID: cryptoutil.SumHash(data[:]), Data: s.serial, Size: gossipItemBytes}
		s.serial++
		s.pubAt[i] = at
		at += gossipGap
		if (i+1)%gossipBatch == 0 || i == items-1 {
			at += gossipQuiet - gossipGap
		}
	}
	s.end = at
}

func (s *gossipSim) delivered(member int, node *simnet.Node, it gossip.Item) {
	k := it.Data.(int) - s.first
	if k < 0 {
		return // a straggler of the warm-up, repaired late; not a measured op
	}
	s.st.resolve(k*len(s.members)+member, true, node.Now()-s.pubAt[k])
}

func (s *gossipSim) net() *simnet.Network { return s.nw }
func (s *gossipSim) nodes() int           { return len(s.members) }
func (s *gossipSim) ops() int             { return len(s.items) * len(s.members) }

func (s *gossipSim) launch() {
	s.base = s.nw.Now()
	for i := range s.items {
		it := s.items[i]
		src := s.members[s.rng.Intn(len(s.members))]
		s.pubAt[i] += s.base
		s.nw.Schedule(s.pubAt[i], func() { src.Publish(it) })
	}
}

func (s *gossipSim) advance(frac float64) {
	s.nw.Run(s.base + time.Duration(frac*float64(s.end)))
	if frac < 1 {
		return
	}
	// A delivery that has not happened by the end of the quiet period has
	// failed; it resolves at its timeout.
	if s.st.resolved < s.st.attempted {
		now := s.nw.Now()
		for k, it := range s.items {
			for i, m := range s.members {
				if !m.Has(it.ID) {
					s.st.resolve(k*len(s.members)+i, false, now-s.pubAt[k])
				}
			}
		}
	}
}

func (s *gossipSim) check() error {
	if share := float64(s.st.ok) / float64(s.st.attempted); share < 0.99 {
		return fmt.Errorf("gossip_sharded: %.4f of deliveries happened; push plus anti-entropy must reach 0.99", share)
	}
	// Anti-entropy never stops, so a few digests are always on the wire.
	return conserved(s.nw, int64(len(s.members)))
}

func (s *gossipSim) layer(m metricSet, r *result, fix metricSet) {
	m["gossip.self_ns_per_msg"] = r.nsPerMsg() - fix["simnet.shard.send_ns_per_msg"]
}

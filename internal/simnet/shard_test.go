package simnet

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tally is what one node's own code saw: every message its handlers got,
// in order, and how many of its Sends the substrate refused. A workload
// keeps one per node and writes it only from that node's events, so only
// the node's own shard touches it.
type tally struct {
	got     []string
	refused int
}

func (t *tally) note(now time.Duration, what string, v any) {
	t.got = append(t.got, fmt.Sprintf("%v:%s:%v", now, what, v))
}

func (t *tally) sent(ok bool) {
	if !ok {
		t.refused++
	}
}

// shardSnapshot serializes everything observable about a finished network:
// end time, merged trace, per-kind latency histograms, and one line per
// node with its liveness and its tally. Layout-invariance tests compare
// these byte for byte.
func shardSnapshot(nw *Network, end time.Duration, tallies []tally) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v trace=%+v\n", end, *nw.Trace())
	lat := nw.latencySnapshot()
	kinds := make([]string, 0, len(lat))
	for k := range lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		h := lat[k]
		fmt.Fprintf(&b, "lat[%s] n=%d p50=%.9f p95=%.9f\n", k, h.Count(), h.Quantile(0.5), h.Quantile(0.95))
	}
	for _, n := range nw.Nodes() {
		t := tallies[n.ID()]
		fmt.Fprintf(&b, "node%d up=%v crashes=%d downtime=%v refused=%d got=%v\n",
			n.ID(), n.Up(), n.Crashes(), n.Downtime(), t.refused, t.got)
	}
	return b.String()
}

// runShardWorkload drives a deliberately messy mixed workload — periodic
// sends, RPC request/response, churn, fault injection, a mid-run partition
// and heal scheduled as control events, plus timer cancellation — and
// returns its snapshot and the RPC envelopes it took and returned. Every
// source of nondeterminism the sharded engine must tame is in here.
func runShardWorkload(cfg NetworkConfig, n int) (snap string, taken, returned int64) {
	taken0, returned0 := envPool.Counts()
	nw := NewWithConfig(cfg)
	nw.SetDefaultProfile(HomeBroadbandProfile())
	nw.SetLinkFault(LinkFault{Corrupt: 0.01, Duplicate: 0.02, Reorder: 0.05})
	nodes := make([]*Node, n)
	tallies := make([]tally, n)
	for i := range nodes {
		nodes[i] = nw.AddNode()
	}
	for i, node := range nodes {
		node, t := node, &tallies[i]
		node.Handle("ping", func(m Message) {
			t.note(node.Now(), "ping", m.Payload)
			t.sent(node.Send(m.From, "pong", nil, 120))
		})
		node.Handle("pong", func(m Message) { t.note(node.Now(), "pong", m.Payload) })
		r := NewRPCNode(node)
		if i%2 == 0 {
			r.Serve("work", func(from NodeID, req any) (any, int) {
				t.note(node.Now(), fmt.Sprintf("work<-%d", from), req)
				return req, 64
			})
		}
	}
	// Periodic pings: each node pumps 12 rounds on its own timer chain.
	var pump func(node *Node, k int)
	pump = func(node *Node, k int) {
		if k >= 12 {
			return
		}
		to := NodeID((int(node.ID()) + k*7 + 1) % n)
		if to != node.ID() {
			tallies[node.ID()].sent(node.Send(to, "ping", k, 300))
		}
		node.After(97*time.Millisecond, func() { pump(node, k+1) })
	}
	for _, node := range nodes {
		node := node
		node.After(time.Duration(int(node.ID())%17)*time.Millisecond, func() { pump(node, 0) })
	}
	// RPC traffic from odd nodes into even servers.
	for i, node := range nodes {
		if i%2 == 0 {
			continue
		}
		r, t := node.rpc, &tallies[i]
		target := NodeID((i + 1) % n)
		var call func(k int)
		call = func(k int) {
			if k >= 8 {
				return
			}
			r.Call(target, "work", k, 200, 400*time.Millisecond, func(resp any, err error) {
				t.note(r.n.Now(), "done", fmt.Sprint(resp, err))
			})
			r.n.After(150*time.Millisecond, func() { call(k + 1) })
		}
		call(0)
	}
	// Churn on every fifth node (draws come from the node's own stream).
	for i, node := range nodes {
		if i%5 == 0 {
			Churn{MTTF: 900 * time.Millisecond, MTTR: 200 * time.Millisecond}.Apply(node)
		}
	}
	// Timer cancel exercise on each node: every third node cancels its
	// ping, the others cancel it and set a later one.
	for _, node := range nodes {
		node := node
		ping := func(any) { tallies[node.ID()].sent(node.Send(NodeID(0), "ping", -1, 50)) }
		tm := node.AfterCall(time.Second, ping, nil)
		if int(node.ID())%3 == 0 {
			node.After(600*time.Millisecond, func() { tm.Cancel() })
		} else {
			node.After(500*time.Millisecond, func() {
				tm.Cancel()
				node.AfterCall(700*time.Millisecond, ping, nil)
			})
		}
	}
	// Control events: a partition appears mid-run and heals later.
	half := make([]NodeID, 0, n/2)
	rest := make([]NodeID, 0, n-n/2)
	for i := range nodes {
		if i < n/2 {
			half = append(half, NodeID(i))
		} else {
			rest = append(rest, NodeID(i))
		}
	}
	nw.Schedule(500*time.Millisecond, func() { nw.Partition(half, rest) })
	nw.Schedule(1100*time.Millisecond, func() { nw.Heal() })
	end := nw.Run(3 * time.Second)
	taken, returned = envPool.Counts()
	return shardSnapshot(nw, end, tallies), taken - taken0, returned - returned0
}

// TestShardLayoutInvariance is the core determinism claim: the same seed
// produces byte-identical results at every (Shards, Workers) combination.
func TestShardLayoutInvariance(t *testing.T) {
	layouts := []NetworkConfig{
		{Seed: 7, Shards: 1, Workers: 1},
		{Seed: 7, Shards: 2, Workers: 1},
		{Seed: 7, Shards: 4, Workers: 1},
		{Seed: 7, Shards: 4, Workers: 4},
		{Seed: 7, Shards: 8, Workers: 3},
		{Seed: 7, Shards: 16, Workers: 8},
	}
	var want string
	for i, cfg := range layouts {
		got, taken, returned := runShardWorkload(cfg, 48)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("snapshot diverged at shards=%d workers=%d:\nbaseline:\n%s\ngot:\n%s",
				cfg.Shards, cfg.Workers, want, got)
		}
		// Every RPC message was consumed or lost (to loss, churn, the
		// partition or the Corrupt fault) by the end, and each handed its
		// envelope back.
		if taken == 0 || taken != returned {
			t.Errorf("shards=%d workers=%d: envelopes taken %d, returned %d; want them equal",
				cfg.Shards, cfg.Workers, taken, returned)
		}
	}
}

// TestShardedMatchesLegacyWhenDeterministic pins the sharded mode to the
// single-heap mode on link set-ups where the two modes' semantics coincide
// exactly — no RNG draw (loss, jitter, faults), no finite downlink, no
// crash — so snapshots, every delivery instant and the exported uplink
// queue metrics must match byte for byte. Each case switches on one more
// part of the substrate model that both modes run through the same Send.
func TestShardedMatchesLegacyWhenDeterministic(t *testing.T) {
	const n = 24
	slowUplink := LinkProfile{Latency: 5 * time.Millisecond, UplinkBps: 1e6}
	cases := []struct {
		name    string
		profile LinkProfile
		setup   func(nw *Network, nodes []*Node)
		traffic func(nodes []*Node, tallies []tally) // nil: the default rounds below
	}{
		{name: "latency only", profile: LinkProfile{Latency: 5 * time.Millisecond}},
		{name: "priority uplink with mixed lanes", profile: slowUplink,
			setup: func(nw *Network, nodes []*Node) {
				for i, node := range nodes {
					node.SetPriorityUplink(i%3 != 0) // leave some uplinks plain FIFO
				}
			}},
		{name: "region matrix", profile: LinkProfile{Latency: 5 * time.Millisecond},
			setup: func(nw *Network, nodes []*Node) {
				region := map[NodeID]int{}
				for i := range nodes {
					region[NodeID(i)] = i % 3
				}
				ms := time.Millisecond
				nw.SetRegionMatrix(region, [][]time.Duration{{0, 20 * ms, 45 * ms}, {20 * ms, 0, 30 * ms}, {45 * ms, 30 * ms, 0}})
			}},
		{name: "queue metrics", profile: slowUplink,
			setup: func(nw *Network, nodes []*Node) { nw.EnableQueueMetrics() }},
		// One sender's queue grows far deeper than everyone else's: any
		// per-shard last-value metric would read differently per layout.
		{name: "queue metrics, asymmetric senders", profile: LinkProfile{Latency: 5 * time.Millisecond, UplinkBps: 1e5},
			setup: func(nw *Network, nodes []*Node) { nw.EnableQueueMetrics() },
			traffic: func(nodes []*Node, tallies []tally) {
				for i, from := range nodes {
					from, to := from, NodeID((i+1)%len(nodes))
					from.After(time.Millisecond, func() { tallies[i].sent(from.Send(to, "x", i, 125)) })
				}
				from := nodes[0]
				from.After(10*time.Millisecond, func() {
					for i := 0; i < 40; i++ {
						tallies[0].sent(from.Send(1, "x", i, 125))
					}
				})
			}},
	}
	for _, tc := range cases {
		run := func(cfg NetworkConfig) string {
			nw := NewWithConfig(cfg)
			nw.SetDefaultProfile(tc.profile)
			nodes := make([]*Node, n)
			tallies := make([]tally, n)
			for i := range nodes {
				node, t := nw.AddNode(), &tallies[i]
				nodes[i] = node
				node.Handle("x", func(m Message) { t.note(node.Now(), m.Kind, m.Payload) })
			}
			if tc.setup != nil {
				tc.setup(nw, nodes)
			}
			if tc.traffic != nil {
				tc.traffic(nodes, tallies)
			}
			// 7 is coprime to n, so each destination hears from exactly one
			// sender and equal-time arrivals never tie across senders (the
			// one place the modes' orders could differ). Sends leave in
			// rounds 2 ms apart — faster than the slow uplink drains — from
			// the senders' own timers, every third round on the ctrl lane.
			for i := 0; i < 400 && tc.traffic == nil; i++ {
				i, from, to := i, nodes[i%n], NodeID((i*7+3)%n)
				if from.ID() == to {
					continue
				}
				lane := LaneBulk
				if (i/n)%3 == 0 {
					lane = LaneCtrl
				}
				from.After(time.Duration(i/n)*2*time.Millisecond, func() { tallies[from.ID()].sent(from.SendLane(to, "x", i, 1000, lane)) })
			}
			end := nw.Run(time.Second)
			var b strings.Builder
			b.WriteString(shardSnapshot(nw, end, tallies))
			regs := []*obs.Registry{nw.obs}
			for _, sh := range nw.shards {
				if sh.obs != nw.obs {
					regs = append(regs, sh.obs)
				}
			}
			if err := obs.MergeRegistries(regs).EncodeJSON(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		legacy := run(NetworkConfig{Seed: 11})
		for _, shards := range []int{1, 4, 16} {
			if got := run(NetworkConfig{Seed: 11, Shards: shards, Workers: 2}); got != legacy {
				t.Errorf("%s: sharded (shards=%d) diverged from legacy on deterministic workload:\n%s\nvs\n%s",
					tc.name, shards, got, legacy)
			}
		}
	}
}

func TestShardedRunUntilAndRunAll(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 1, Shards: 4, Workers: 2})
	nw.SetDefaultProfile(LinkProfile{Latency: 10 * time.Millisecond})
	a := nw.AddNode()
	b := nw.AddNode()
	got := 0
	b.Handle("x", func(m Message) { got++ })
	a.After(100*time.Millisecond, func() { a.Send(b.ID(), "x", nil, 10) })
	if end := nw.Run(50 * time.Millisecond); end != 50*time.Millisecond {
		t.Fatalf("Run stopped at %v, want 50ms", end)
	}
	if got != 0 {
		t.Fatalf("event beyond the horizon ran early")
	}
	if nw.Now() != 50*time.Millisecond {
		t.Fatalf("clock at %v, want 50ms", nw.Now())
	}
	nw.RunAll()
	if got != 1 {
		t.Fatalf("pending event did not run under RunAll; got %d deliveries", got)
	}
	if nw.Now() < 120*time.Millisecond {
		t.Fatalf("clock did not advance through delivery: %v", nw.Now())
	}
}

// loopLayouts are the two shapes of the one run loop: a single heap, whose
// control queue holds every event, and shards that open windows.
var loopLayouts = []NetworkConfig{{Seed: 1}, {Seed: 1, Shards: 2, Workers: 1}}

// TestRunNeverRewindsClock: a Run whose deadline lies behind the clock runs
// nothing and leaves the clock where it was, on either layout.
func TestRunNeverRewindsClock(t *testing.T) {
	for _, cfg := range loopLayouts {
		nw := NewWithConfig(cfg)
		n := nw.AddNode()
		fired := 0
		nw.After(20*time.Second, func() { fired++ })
		n.After(20*time.Second, func() { fired++ })
		nw.Run(10 * time.Second)
		if end := nw.Run(5 * time.Second); end != 10*time.Second || nw.Now() != 10*time.Second {
			t.Errorf("%+v: Run(5s) after Run(10s) returned %v with Now %v, want 10s and 10s", cfg, end, nw.Now())
		}
		if fired != 0 {
			t.Errorf("%+v: %d events due at 20s ran", cfg, fired)
		}
	}
}

// TestRunReentrantPanics: an event that calls Run panics, on either layout,
// and the network runs again once the panic is recovered.
func TestRunReentrantPanics(t *testing.T) {
	for _, cfg := range loopLayouts {
		nw := NewWithConfig(cfg)
		nw.AddNode()
		nw.After(time.Second, func() { nw.Run(2 * time.Second) })
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, "re-entrant Run") {
					t.Errorf("%+v: Run inside an event recovered %q, want a re-entrant Run panic", cfg, r)
				}
			}()
			nw.RunAll()
		}()
		if end := nw.Run(3 * time.Second); end != 3*time.Second {
			t.Errorf("%+v: Run after the recovered panic stopped at %v, want 3s", cfg, end)
		}
	}
}

func TestShardedTimerSemantics(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 3, Shards: 2, Workers: 1})
	nw.SetDefaultProfile(LinkProfile{Latency: time.Millisecond})
	n := nw.AddNode()
	fired := []string{}
	tm := n.AfterCall(20*time.Millisecond, func(any) { fired = append(fired, "cancelled") }, nil)
	if !tm.Active() {
		t.Fatal("fresh timer not active")
	}
	if !tm.Cancel() {
		t.Fatal("cancel of pending timer failed")
	}
	if tm.Cancel() {
		t.Fatal("double cancel succeeded")
	}
	tm2 := n.AfterCall(60*time.Millisecond, func(any) { fired = append(fired, "late") }, nil)
	n.After(40*time.Millisecond, func() { fired = append(fired, "mid") })
	nw.RunAll()
	if len(fired) != 2 || fired[0] != "mid" || fired[1] != "late" {
		t.Fatalf("fired = %v, want [mid late]", fired)
	}
	if tm2.Active() {
		t.Fatal("fired timer still active")
	}
}

func TestShardedRPCTimeoutOnCrashedServer(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 5, Shards: 4, Workers: 2})
	nw.SetDefaultProfile(LinkProfile{Latency: 2 * time.Millisecond})
	a := nw.AddNode()
	b := nw.AddNode()
	ra := NewRPCNode(a)
	rb := NewRPCNode(b)
	rb.Serve("echo", func(from NodeID, req any) (any, int) { return req, 10 })
	var okResp, timeouts int
	ra.Call(b.ID(), "echo", "hi", 10, 100*time.Millisecond, func(resp any, err error) {
		if err == nil && resp == "hi" {
			okResp++
		}
	})
	nw.RunAll()
	b.Crash()
	ra.Call(b.ID(), "echo", "again", 10, 100*time.Millisecond, func(resp any, err error) {
		if err != nil {
			timeouts++
		}
	})
	nw.RunAll()
	if okResp != 1 || timeouts != 1 {
		t.Fatalf("okResp=%d timeouts=%d, want 1 and 1", okResp, timeouts)
	}
}

func TestShardedZeroLatencyPanics(t *testing.T) {
	nw := NewWithConfig(NetworkConfig{Seed: 1, Shards: 2, Workers: 1})
	nw.SetDefaultProfile(LinkProfile{}) // zero latency: no conservative lookahead exists
	nw.AddNode()
	defer func() {
		if recover() == nil {
			t.Fatal("sharded Run with a zero-latency profile did not panic")
		}
	}()
	nw.Run(time.Second)
}

func TestShardedAccessors(t *testing.T) {
	legacy := New(1)
	if legacy.sharded || len(legacy.shards) != 1 || legacy.workers != 1 {
		t.Fatalf("legacy accessors: sharded=%v shards=%d workers=%d",
			legacy.sharded, len(legacy.shards), legacy.workers)
	}
	sh := NewWithConfig(NetworkConfig{Seed: 1, Shards: 6, Workers: 2})
	if !sh.sharded || len(sh.shards) != 6 || sh.workers != 2 {
		t.Fatalf("sharded accessors: sharded=%v shards=%d workers=%d",
			sh.sharded, len(sh.shards), sh.workers)
	}
	// Workers cap at the shard count.
	capped := NewWithConfig(NetworkConfig{Seed: 1, Shards: 2, Workers: 64})
	if capped.workers != 2 {
		t.Fatalf("workers not capped at shards: %d", capped.workers)
	}
	n := sh.AddNode()
	if n.Obs() == sh.Obs() {
		t.Fatal("sharded node should use its shard registry, not the root registry")
	}
}

// TestShardMergesOnlyStagedOutboxes stages events in k of the S² outboxes
// during one window and stops the run right after it. The barrier must have
// moved exactly those events onto their destination heaps — an event staged
// in the last window before Run returns is not left behind — and emptied
// every outbox, dirty list and inbox list; the next Run then delivers them.
func TestShardMergesOnlyStagedOutboxes(t *testing.T) {
	const shards = 8
	for _, workers := range []int{1, 3} {
		nw := NewWithConfig(NetworkConfig{Seed: 5, Shards: shards, Workers: workers})
		nw.SetDefaultProfile(LinkProfile{Latency: 10 * time.Millisecond})
		nodes := make([]*Node, shards) // node i runs on shard i
		got := make([][]string, shards)
		for i := range nodes {
			nodes[i] = nw.AddNode()
			nodes[i].Handle("staged", func(m Message) {
				got[m.To] = append(got[m.To], fmt.Sprintf("%d:%v", m.From, m.Payload))
			})
		}
		// 4 of the 64 (source, destination) pairs, two events on one of them;
		// shard 3 hears from two sources, shards 1, 2, 4 and 6 from none.
		sends := []struct{ from, to int }{{0, 3}, {0, 5}, {2, 3}, {7, 0}, {0, 3}}
		want := make([][]string, shards)
		perDst := make([]int, shards)
		for k, s := range sends {
			k, from, to := k, nodes[s.from], NodeID(s.to)
			from.After(time.Millisecond, func() { from.Send(to, "staged", k, 100) })
			perDst[s.to]++
		}
		want[3] = []string{"0:0", "0:4", "2:2"} // key order: (at, origin, oseq)
		want[5] = []string{"0:1"}
		want[0] = []string{"7:3"}

		nw.Run(2 * time.Millisecond) // the sending window is the run's last
		for i, sh := range nw.shards {
			if len(sh.heap) != perDst[i] {
				t.Errorf("workers=%d: shard %d holds %d events after the barrier, want %d", workers, i, len(sh.heap), perDst[i])
			}
			if len(sh.dirty) != 0 || len(sh.inbox) != 0 {
				t.Errorf("workers=%d: shard %d keeps %d dirty / %d inbox entries past the barrier", workers, i, len(sh.dirty), len(sh.inbox))
			}
			for d, box := range sh.outbox {
				if len(box) != 0 {
					t.Errorf("workers=%d: outbox %d->%d still holds %d events", workers, i, d, len(box))
				}
			}
		}
		if tr := nw.Trace(); tr.Delivered != 0 {
			t.Fatalf("workers=%d: %d messages delivered inside their own lookahead", workers, tr.Delivered)
		}

		nw.Run(time.Second)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: deliveries %v, want %v", workers, got, want)
		}
	}
}

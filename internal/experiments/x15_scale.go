package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/simnet"
)

// X15: the scale sweep. The paper's thesis is population-dependent — the
// IPFS measurement literature shows DHT and gossip behaviour only becomes
// interesting at thousands of peers, and the ROADMAP north-star demands
// runs "as fast as the hardware allows" — so this experiment drives each
// substrate subsystem across N ∈ {100, 1k, 5k, 10k} and reports, per cell,
// the convergence rate (did the protocol still do its job at that
// population?) and the delivered message volume, plus wall time and
// allocations when timing is enabled. The convergence and traffic numbers
// are seed-deterministic and flow into the bench gate; the timing columns
// are machine-dependent and therefore opt-in (cmd/feudalism -timing). The
// clock is passed in rather than read here so that everything under
// internal/ stays free of time.Now (the determinism lint enforces this).

// ScaleTiers returns the sweep's population axis: the full experiment runs
// 100 → 10,000 nodes, the tiny variant keeps the same shape at test scale.
func ScaleTiers(tiny bool) []int {
	if tiny {
		return []int{30, 60}
	}
	return []int{100, 1000, 5000, 10000}
}

// ScaleSubsystems returns the sweep's subsystem axis, in presentation
// order: the raw RPC substrate, then the two discovery/dissemination
// protocols built on it.
func ScaleSubsystems() []string { return []string{"simnet", "dht", "gossip"} }

// ScaleCell is one (subsystem, N) measurement.
type ScaleCell struct {
	N         int
	Converged float64 // fraction of probes satisfied, in [0, 1]
	Messages  int64   // substrate messages delivered during the run
}

// ScaleCellRun executes one cell of the sweep. Exported so the scale-test
// matrix drives exactly the experiment's workloads.
func ScaleCellRun(subsystem string, seed int64, n int) ScaleCell {
	return scaleCellOn(subsystem, n, func() *simnet.Network { return simnet.New(seed) })
}

// ScaleCellRunSharded is ScaleCellRun on the sharded engine: the same
// workloads on a network built with NetworkConfig{Shards, Workers}. The
// huge tiers (ScaleHugeTiers) run through this path; results are identical
// at every (Shards, Workers) setting but differ from the single-heap
// engine's (substrate draws come from per-node streams there — see
// simnet/shard.go), so sharded and unsharded cells are never compared.
func ScaleCellRunSharded(subsystem string, seed int64, n, shards, workers int) ScaleCell {
	return scaleCellOn(subsystem, n, func() *simnet.Network {
		return simnet.NewWithConfig(simnet.NetworkConfig{Seed: seed, Shards: shards, Workers: workers})
	})
}

func scaleCellOn(subsystem string, n int, mk func() *simnet.Network) ScaleCell {
	var run func(*simnet.Network, int) (float64, int64)
	switch subsystem {
	case "simnet":
		run = scaleSimnet
	case "dht":
		run = scaleDHT
	case "gossip":
		run = scaleGossip
	default:
		panic("x15: unknown subsystem " + subsystem)
	}
	cell := ScaleCell{N: n}
	cell.Converged, cell.Messages = run(mk(), n)
	return cell
}

// scaleSimnet exercises the raw RPC hot path: every node echoes a few
// calls off its ring neighbour. Convergence is the fraction of calls that
// complete; at any population the substrate should be lossless.
func scaleSimnet(nw *simnet.Network, n int) (float64, int64) {
	const callsPerNode = 3
	rpcs := make([]*simnet.RPCNode, n)
	for i := range rpcs {
		rpcs[i] = simnet.NewRPCNode(nw.AddNode())
		rpcs[i].Serve("x15.echo", func(from simnet.NodeID, req any) (any, int) {
			return req, 8
		})
	}
	// One tally per caller, summed after the run: on the sharded engine a
	// callback runs on its caller's shard worker, so a shared counter would
	// be written from several goroutines at once.
	okBy := make([]int, n)
	for i, r := range rpcs {
		to := rpcs[(i+1)%n].Node().ID()
		for c := 0; c < callsPerNode; c++ {
			r.Call(to, "x15.echo", c, 16, 5*time.Second, func(_ any, err error) {
				if err == nil {
					okBy[i]++
				}
			})
		}
	}
	nw.RunAll()
	return float64(sum(okBy)) / float64(n*callsPerNode), delivered(nw)
}

// scaleDHT grows a Kademlia population to N, stores a key set, and probes
// whether distant readers can still resolve every key. Small k keeps the
// per-node state realistic for device-grade participants.
func scaleDHT(nw *simnet.Network, n int) (float64, int64) {
	const (
		nKeys    = 12
		nReaders = 24
	)
	cfg := dht.Config{K: 8, Alpha: 3, RequestTimeout: 2 * time.Second}
	// Joins 20 ms apart keep concurrent bootstrap traffic bounded while the
	// virtual clock absorbs the rest.
	peers := growDHT(nw, n, 20*time.Millisecond, sameDHT(cfg))
	nw.RunAll()
	keys := putKeys(peers[0], nKeys, "x15-key-%d")
	nw.RunAll()

	total := 0
	okBy := make([]int, n) // per reader, as in scaleSimnet
	stride := n / nReaders
	if stride == 0 {
		stride = 1
	}
	for r := 1; r < n && total < nReaders*nKeys; r += stride {
		for _, k := range keys {
			total++
			peers[r].Get(k, func(_ []byte, found bool) {
				if found {
					okBy[r]++
				}
			})
		}
	}
	nw.RunAll()
	return float64(sum(okBy)) / float64(total), delivered(nw)
}

// scaleGossip floods items over a chord-style overlay (ring + power-of-two
// long links, out-degree ≤ 8, so diameter stays O(log N)) with anti-entropy
// repair, and measures the fraction of (member, item) pairs delivered.
func scaleGossip(nw *simnet.Network, n int) (float64, int64) {
	const nItems = 8
	members := make([]*gossip.Member, n)
	ids := make([]simnet.NodeID, n)
	for i := range members {
		node := nw.AddNode()
		ids[i] = node.ID()
		members[i] = gossip.NewMember(node, gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
	}
	offsets := chordOffsets(n)
	for i, m := range members {
		peers := make([]simnet.NodeID, 0, len(offsets))
		for _, off := range offsets {
			peers = append(peers, ids[(i+off)%n])
		}
		m.SetPeers(peers)
	}
	items := make([]gossip.Item, nItems)
	for i := range items {
		data := fmt.Sprintf("x15-item-%d", i)
		items[i] = gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: data, Size: len(data)}
		it := items[i]
		src := members[(i*n)/nItems]
		nw.Schedule(time.Duration(i)*15*time.Second, func() { src.Publish(it) })
	}
	nw.Run(5 * time.Minute)

	have, total := 0, 0
	for _, m := range members {
		for _, it := range items {
			total++
			if m.Has(it.ID) {
				have++
			}
		}
	}
	return float64(have) / float64(total), delivered(nw)
}

// chordOffsets returns ring steps {1, 2, 4, ...} capped at 8 links and at
// the population size, giving every member a deterministic small-world
// out-neighbourhood.
func chordOffsets(n int) []int {
	var offs []int
	for off := 1; off < n && len(offs) < 8; off *= 2 {
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		offs = []int{0}
	}
	return offs
}

func sum(xs []int) int {
	t := 0
	for _, v := range xs {
		t += v
	}
	return t
}

// delivered reads the substrate's delivered-message total for the run.
func delivered(nw *simnet.Network) int64 { return nw.Trace().Delivered }

// scaleMatrix is the numeric core of X15: rows are subsystems, columns
// alternate "N=<tier> conv%" and "N=<tier> msg/node" so one Matrix carries
// both measures through AggregateSeeds. Timing never enters the matrix —
// it is machine-dependent and would poison the multi-seed aggregates.
func scaleMatrix(seed int64, tiny bool) Matrix {
	tiers := ScaleTiers(tiny)
	var m Matrix
	for _, n := range tiers {
		m.Cols = append(m.Cols, fmt.Sprintf("N=%d conv%%", n), fmt.Sprintf("N=%d msg/node", n))
	}
	for _, sub := range ScaleSubsystems() {
		var row []float64
		for _, n := range tiers {
			cell := ScaleCellRun(sub, seed, n)
			row = append(row, cell.Converged*100, float64(cell.Messages)/float64(n))
		}
		m.add(sub, row...)
	}
	return m
}

// ScaleSweep renders the single-seed X15 table. Given a wall clock
// (`feudalism experiment x15 -timing`) each cell also shows wall seconds
// and heap allocations; with a nil clock the output is a pure function of
// the seed.
func ScaleSweep(seed int64, tiny bool, clock func() int64) *Table {
	tiers := ScaleTiers(tiny)
	subs := ScaleSubsystems()
	headers := []string{"Subsystem"}
	for _, n := range tiers {
		headers = append(headers, fmt.Sprintf("N=%d", n))
	}
	title := "X15: scale sweep — convergence %, messages/node per subsystem × population"
	if tiny {
		title = "X15 (tiny): scale sweep"
	}
	t := &Table{Title: title, Headers: headers}
	for _, sub := range subs {
		row := []any{sub}
		for _, n := range tiers {
			var cell ScaleCell
			timing := timed(clock, func() { cell = ScaleCellRun(sub, seed, n) })
			text := fmt.Sprintf("%.1f%% %.0fm/n", cell.Converged*100, float64(cell.Messages)/float64(n))
			if timing != nil {
				text += fmt.Sprintf(" %.2fs %s", float64(timing.WallNS)/1e9, humanCount(timing.Allocs))
			}
			row = append(row, text)
		}
		t.Add(row...)
	}
	return t
}

// humanCount renders an allocation count compactly (12.3k, 4.5M).
func humanCount(v uint64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fMalloc", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fkalloc", float64(v)/1e3)
	}
	return fmt.Sprintf("%dalloc", v)
}

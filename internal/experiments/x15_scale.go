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
// population?) and the delivered message volume. Both are
// seed-deterministic and flow into the bench gate; wall time and
// allocations per cell are `feudalism scale`'s (RunScaleHuge), which
// takes the same populations on either engine.

// scaleSizes is the sweep's population axis: full scale 100 → 10,000
// nodes, tiny the same shape at test scale.
var scaleSizes = [2][]int{{100, 1000, 5000, 10000}, {30, 60}}

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

// ScaleCellRun executes one cell of the sweep on a network env builds: a
// Layout with Shards 0 is the single-heap engine the X15 table runs on,
// Shards >= 1 the sharded engine of the huge tiers. Sharded results are
// identical at every (Shards, Workers) setting but differ from the
// single-heap engine's (substrate draws come from per-node streams there —
// see simnet/shard.go), so cells of the two engines are never compared.
// Exported so the scale tests drive exactly the experiment's workloads.
func ScaleCellRun(env Env, subsystem string, n int) ScaleCell {
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
	cell.Converged, cell.Messages = run(env.Net(), n)
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
// both measures through AggregateSeeds.
func scaleMatrix(env Env, ns []int) Matrix {
	var m Matrix
	for _, n := range ns {
		m.Cols = append(m.Cols, fmt.Sprintf("N=%d conv%%", n), fmt.Sprintf("N=%d msg/node", n))
	}
	for _, sub := range ScaleSubsystems() {
		var row []float64
		for _, n := range ns {
			cell := ScaleCellRun(env, sub, n)
			row = append(row, cell.Converged*100, float64(cell.Messages)/float64(n))
		}
		m.add(sub, row...)
	}
	return m
}

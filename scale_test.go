// Scale tests: one table-driven matrix of subsystem × population tier,
// driving exactly the X15 scale-sweep workloads (experiments.ScaleCellRun)
// plus a chain row with miner-specific invariants. Under -short only the
// small tier runs. The 10k big tier and the 100k huge tier (the sharded
// engine) run only when SCALE=big or SCALE=huge names them, so
// `go test ./...` stays fast.
package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/experiments"
	"repro/internal/simnet"
)

// scaleRow is one cell of the scale matrix: subsystem × population tier on
// an engine layout (shards 0 is the single-heap engine), with the
// convergence floor the run must clear.
type scaleRow struct {
	subsystem string
	tier      string
	n         int
	shards    int
	seed      int64
	minConv   float64
}

// scaleMatrix is the whole matrix. The convergence floors encode what the
// substrate owes at each population: the raw RPC layer is lossless at any
// N, gossip's overlay floods completely, and the DHT is allowed the
// lookup-miss tail that grows with population (X15 documents the curve).
// The small and medium tiers are the merge gate's; big (10k, plus 5k for
// the curve, `make scale`) and huge (100k on the sharded engine, the
// nightly; about a minute of wall time on one core, see EXPERIMENTS.md
// "Running at 1M") run only when SCALE names them.
var scaleMatrix = []scaleRow{
	{"simnet", "small", 100, 0, 42, 1.0},
	{"simnet", "medium", 2000, 0, 42, 1.0},
	{"dht", "small", 100, 0, 42, 0.95},
	{"dht", "medium", 1000, 0, 42, 0.85},
	{"gossip", "small", 100, 0, 42, 0.99},
	{"gossip", "medium", 2000, 0, 42, 0.99},
	{"simnet", "big", 10000, 0, 42, 1.0},
	{"dht", "big", 5000, 0, 42, 0.85},
	{"dht", "big", 10000, 0, 42, 0.85},
	{"gossip", "big", 10000, 0, 42, 0.99},
	{"simnet", "huge", 100_000, experiments.HugeShards, 42, 1.0},
	{"dht", "huge", 100_000, experiments.HugeShards, 42, 0.85},
	{"gossip", "huge", 100_000, experiments.HugeShards, 42, 0.99},
}

func TestScaleMatrix(t *testing.T) {
	for _, row := range scaleMatrix {
		t.Run(row.subsystem+"/"+row.tier, func(t *testing.T) {
			switch row.tier {
			case "medium":
				if testing.Short() {
					t.Skip("medium tier skipped under -short")
				}
			case "big", "huge":
				if os.Getenv("SCALE") != row.tier {
					t.Skipf("%s tier: set SCALE=%s", row.tier, row.tier)
				}
			}
			env := experiments.Env{Seed: row.seed, Layout: simnet.NetworkConfig{Shards: row.shards}}
			cell := experiments.ScaleCellRun(env, row.subsystem, row.n)
			if cell.Converged < row.minConv {
				t.Errorf("%s at N=%d (shards=%d): converged %.1f%%, floor %.1f%%",
					row.subsystem, row.n, row.shards, cell.Converged*100, row.minConv*100)
			}
			if cell.Messages <= 0 {
				t.Errorf("%s at N=%d (shards=%d): no traffic delivered", row.subsystem, row.n, row.shards)
			}
		})
	}
	t.Run("chain/small", func(t *testing.T) {
		scaleChain(t, 202, 8, 2*time.Hour)
	})
}

// scaleChain runs n miners for the given horizon and checks the
// chain-specific invariants: full head convergence, expected height, and
// every miner productive.
func scaleChain(t *testing.T, seed int64, n int, horizon time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("scale test")
	}
	nw := simnet.New(seed)
	spacing := 10 * time.Second
	cfg := chain.Config{
		InitialDifficulty: 1 << 9,
		Subsidy:           50,
	}
	miners := make([]*chain.Miner, n)
	ids := make([]simnet.NodeID, n)
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		ids[i] = node.ID()
		miners[i] = chain.NewMiner(node, chain.NewChain(cfg), cryptoutil.SumHash([]byte{byte(i), 0x5C}),
			2*float64(cfg.InitialDifficulty)/spacing.Seconds()/float64(n)) // 2 blocks per spacing
	}
	for i, m := range miners {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
		m.Start()
	}
	nw.Run(horizon)
	for _, m := range miners {
		m.Stop()
	}
	nw.RunAll()

	head := miners[0].Chain().HeadHash()
	for i, m := range miners {
		if m.Chain().HeadHash() != head {
			t.Fatalf("miner %d diverged", i)
		}
	}
	c := miners[0].Chain()
	if c.Height() < 400 {
		t.Errorf("height = %d over %v; expected ≥400", c.Height(), horizon)
	}
	// Every miner should have found blocks.
	for i, m := range miners {
		if m.BlocksFound() == 0 {
			t.Errorf("miner %d found nothing", i)
		}
	}
}

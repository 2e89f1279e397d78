// Shard-determinism suite: the sharded engine's headline guarantee is that
// the merged execution is a pure function of the seed — independent of how
// many shards the nodes are partitioned across and how many workers run
// them. This suite drives the X15 simnet, dht and gossip workloads across
// Shards ∈ {1, 4, 16} × Workers ∈ {1, GOMAXPROCS} and requires the full
// merged metric snapshot (protocol counters, substrate traffic, span
// histograms) to be byte-identical everywhere. Under -short the population
// drops to the small tier, which is the variant `make race` runs with the
// race detector watching the worker pool.
package repro

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// shardDetShards is the determinism grid's shard axis. Each shard count
// runs at Workers 1 and GOMAXPROCS (RunScaleHuge's default; one run when
// GOMAXPROCS is 1).
var shardDetShards = []int{1, 4, 16}

func TestShardDeterminism(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 600
	}
	for _, sub := range experiments.ScaleSubsystems() {
		t.Run(sub, func(t *testing.T) {
			var want, wantAt string
			for _, shards := range shardDetShards {
				cells, _, err := experiments.RunScaleHuge(experiments.HugeOptions{
					Seed: 42, Tiers: []int{n}, Subsystems: []string{sub}, Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					snap, err := json.Marshal(c.Snapshot)
					if err != nil {
						t.Fatalf("marshal snapshot: %v", err)
					}
					got := fmt.Sprintf("conv=%.9f msgs=%d snap=%s", c.Cell.Converged, c.Cell.Messages, snap)
					at := fmt.Sprintf("shards=%d workers=%d", shards, c.Workers)
					if want == "" {
						want, wantAt = got, at
						continue
					}
					if got != want {
						t.Fatalf("%s at N=%d: snapshot at %s differs from %s\n%s\nvs\n%s",
							sub, n, at, wantAt, got, want)
					}
				}
			}
		})
	}
}

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
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// shardDetLayouts is the determinism grid. Worker counts are deduplicated
// at runtime when GOMAXPROCS is 1.
var shardDetShards = []int{1, 4, 16}

func shardDetWorkers() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

// shardDetRun executes one sharded X15 cell under a private obs collector
// and returns the byte-exact description of everything it measured.
func shardDetRun(t *testing.T, sub string, n, shards, workers int) string {
	t.Helper()
	col := obs.NewCollector()
	restore := obs.SetCollector(col)
	cell := experiments.ScaleCellRunSharded(sub, 42, n, shards, workers)
	restore()
	snap, err := json.Marshal(col.Merged())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return fmt.Sprintf("conv=%.9f msgs=%d snap=%s", cell.Converged, cell.Messages, snap)
}

func TestShardDeterminism(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 600
	}
	for _, sub := range experiments.ScaleSubsystems() {
		sub := sub
		t.Run(sub, func(t *testing.T) {
			var want string
			var wantAt string
			for _, shards := range shardDetShards {
				for _, workers := range shardDetWorkers() {
					got := shardDetRun(t, sub, n, shards, workers)
					at := fmt.Sprintf("shards=%d workers=%d", shards, workers)
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

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// The huge tiers push X15 one-to-two orders of magnitude past the table's
// 10k nodes: 100k for the nightly test tier and 1M for the nightly sweep.
// These populations run on the sharded engine, whose results are
// byte-identical at every worker count — which is what lets the harness
// measure a parallel speedup and simultaneously prove the parallelism
// changed nothing. With Shards 0 the same runner times the table's own
// single-heap cells.

// HugeShards is the default shard count for the huge tiers. Any value
// produces identical results (the determinism suite pins this); 64 keeps
// per-shard heaps small at 1M nodes while oversubscribing any plausible
// worker count.
const HugeShards = 64

// HugeOptions sizes one huge-tier sweep.
type HugeOptions struct {
	Seed       int64
	Tiers      []int    // populations to run
	Subsystems []string // a subset of ScaleSubsystems()
	// Shards for the engine: 0 is the single-heap engine, >= 1 the sharded
	// engine.
	Shards int
	// Workers are the worker counts to run each cell at; nil means
	// {1, GOMAXPROCS} (deduplicated) on the sharded engine, i.e. the serial
	// baseline plus the parallel run whose speedup the artifact records,
	// and {1} on the single-heap engine, which ignores Workers.
	Workers []int
	// WallClock, when non-nil, supplies monotonic wall-clock nanoseconds
	// (injected by cmd/feudalism, never read under internal/) and records
	// each cell's wall time and allocations.
	WallClock func() int64
}

// HugeCell is one (subsystem, N, workers) run of the sweep.
type HugeCell struct {
	Subsystem string
	N         int
	Shards    int
	Workers   int
	Cell      ScaleCell
	// Snapshot is the deterministic merged metric state of the run; byte
	// equality across worker counts is the determinism proof the artifact
	// carries.
	Snapshot *obs.Snapshot
	Timing   *obs.Timing
	// MsgsPerSec is substrate deliveries per wall-clock second — the
	// first-class throughput metric of the huge tiers. 0 without a clock.
	MsgsPerSec float64
}

// ID returns the cell's bench-entry identifier.
func (c HugeCell) ID() string {
	return fmt.Sprintf("x15.huge.%s.n%d.w%d", c.Subsystem, c.N, c.Workers)
}

// RunScaleHuge runs every (subsystem, tier, workers) cell and returns the
// cells plus the bench artifact. It returns an error if any pair of runs
// of the same (subsystem, tier) at different worker counts diverges — the
// determinism acceptance gate for the sharded engine.
func RunScaleHuge(opts HugeOptions) ([]HugeCell, *obs.BenchFile, error) {
	workers := opts.Workers
	if workers == nil {
		workers = []int{1}
		if p := runtime.GOMAXPROCS(0); p > 1 && opts.Shards > 0 {
			workers = append(workers, p)
		}
	}
	file := &obs.BenchFile{
		Schema: obs.BenchSchema,
		Seed:   opts.Seed,
		Trials: 1,
		Scale:  "huge",
	}
	var cells []HugeCell
	for _, sub := range opts.Subsystems {
		for _, n := range opts.Tiers {
			var baseline []byte
			for _, w := range workers {
				c := HugeCell{Subsystem: sub, N: n, Shards: opts.Shards, Workers: w}
				env := Env{Seed: opts.Seed, Layout: simnet.NetworkConfig{Shards: opts.Shards, Workers: w}}
				e := benchEntry(c.ID(), opts.WallClock, env, func(env Env) { c.Cell = ScaleCellRun(env, sub, n) })
				c.Snapshot, c.Timing = e.Metrics, e.Timing
				if c.Timing != nil && c.Timing.WallNS > 0 {
					c.MsgsPerSec = float64(c.Cell.Messages) / (float64(c.Timing.WallNS) / 1e9)
				}
				enc, err := json.Marshal(c.Snapshot)
				if err != nil {
					return nil, nil, err
				}
				if baseline == nil {
					baseline = enc
				} else if !bytes.Equal(baseline, enc) {
					return nil, nil, fmt.Errorf(
						"x15.huge.%s.n%d: metric snapshot at workers=%d differs from workers=%d — sharded engine nondeterminism",
						sub, n, w, workers[0])
				}
				cells = append(cells, c)
				file.Experiments = append(file.Experiments, e)
			}
		}
	}
	file.Sort()
	return cells, file, nil
}

// HugeSpeedup returns the msgs/sec ratio between the highest- and
// lowest-worker runs of (subsystem, n) in cells, and whether both ends
// exist with timing. The nightly gate reads this as its >1.5× check.
func HugeSpeedup(cells []HugeCell, sub string, n int) (float64, bool) {
	var lo, hi *HugeCell
	for i := range cells {
		c := &cells[i]
		if c.Subsystem != sub || c.N != n {
			continue
		}
		if lo == nil || c.Workers < lo.Workers {
			lo = c
		}
		if hi == nil || c.Workers > hi.Workers {
			hi = c
		}
	}
	if lo == nil || hi == nil || lo.Workers == hi.Workers || lo.MsgsPerSec <= 0 || hi.MsgsPerSec <= 0 {
		return 0, false
	}
	return hi.MsgsPerSec / lo.MsgsPerSec, true
}

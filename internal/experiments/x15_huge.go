package experiments

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/obs"
)

// The huge tiers push X15 one-to-two orders of magnitude past the golden
// sweep (ScaleTiers caps at 10k): 100k nodes for the optional merge-gate
// tier and 1M for the nightly. These populations only run on the sharded
// engine (simnet.NewWithConfig), whose results are byte-identical at every
// worker count — which is what lets the harness measure a parallel speedup
// and simultaneously prove the parallelism changed nothing. The golden
// ScaleTiers stay on the single-heap engine, untouched.

// ScaleHugeTiers returns the sharded sweep's population axis.
func ScaleHugeTiers() []int { return []int{100_000, 1_000_000} }

// HugeShards is the default shard count for the huge tiers. Any value
// produces identical results (the determinism suite pins this); 64 keeps
// per-shard heaps small at 1M nodes while oversubscribing any plausible
// worker count.
const HugeShards = 64

// HugeOptions sizes one huge-tier sweep.
type HugeOptions struct {
	Seed int64
	// Tiers are the populations to run; nil means ScaleHugeTiers().
	Tiers []int
	// Subsystems to run; nil means ScaleSubsystems().
	Subsystems []string
	// Shards for the sharded engine; 0 means HugeShards.
	Shards int
	// Workers are the worker counts to run each cell at; nil means
	// {1, GOMAXPROCS} (deduplicated), i.e. the serial baseline plus the
	// parallel run whose speedup the artifact records.
	Workers []int
	// WallClock supplies monotonic wall-clock nanoseconds (injected by
	// cmd/feudalism, never read under internal/). Required: the huge tiers
	// exist to measure msgs/sec of wall time.
	WallClock func() int64
}

func (o HugeOptions) withDefaults() HugeOptions {
	if o.Tiers == nil {
		o.Tiers = ScaleHugeTiers()
	}
	if o.Subsystems == nil {
		o.Subsystems = ScaleSubsystems()
	}
	if o.Shards <= 0 {
		o.Shards = HugeShards
	}
	if o.Workers == nil {
		o.Workers = []int{1}
		if p := runtime.GOMAXPROCS(0); p > 1 {
			o.Workers = append(o.Workers, p)
		}
	}
	return o
}

// HugeCell is one (subsystem, N, workers) run of the sharded sweep.
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
	opts = opts.withDefaults()
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
			for _, w := range opts.Workers {
				c, err := runHugeCell(sub, n, w, opts)
				if err != nil {
					return nil, nil, err
				}
				enc, err := encodeSnapshot(c.Snapshot)
				if err != nil {
					return nil, nil, err
				}
				if baseline == nil {
					baseline = enc
				} else if !bytes.Equal(baseline, enc) {
					return nil, nil, fmt.Errorf(
						"x15.huge.%s.n%d: metric snapshot at workers=%d differs from workers=%d — sharded engine nondeterminism",
						sub, n, w, opts.Workers[0])
				}
				cells = append(cells, c)
				file.Experiments = append(file.Experiments, obs.BenchExperiment{
					ID: c.ID(), Metrics: c.Snapshot, Timing: c.Timing,
				})
			}
		}
	}
	file.Sort()
	return cells, file, nil
}

func runHugeCell(sub string, n, workers int, opts HugeOptions) (HugeCell, error) {
	col := obs.NewCollector()
	restore := obs.SetCollector(col)
	defer restore()

	c := HugeCell{Subsystem: sub, N: n, Shards: opts.Shards, Workers: workers}
	c.Timing = timed(opts.WallClock, func() {
		c.Cell = ScaleCellRunSharded(sub, opts.Seed, n, opts.Shards, workers)
	})
	c.Snapshot = col.Merged()
	if c.Timing != nil && c.Timing.WallNS > 0 {
		c.MsgsPerSec = float64(c.Cell.Messages) / (float64(c.Timing.WallNS) / 1e9)
	}
	return c, nil
}

func encodeSnapshot(s *obs.Snapshot) ([]byte, error) {
	f := obs.BenchFile{Schema: obs.BenchSchema, Experiments: []obs.BenchExperiment{{ID: "snap", Metrics: s}}}
	return f.EncodeJSON()
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

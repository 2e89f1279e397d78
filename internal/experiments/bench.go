package experiments

import (
	"runtime"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// BenchOptions sizes one bench sweep over the experiment registry.
type BenchOptions struct {
	// Seed is the base seed; multi-trial experiments derive their trial
	// seeds from it with simnet.Seeds, exactly like `feudalism experiment`.
	Seed int64
	// Trials > 1 runs the Multi variant of experiments that have one. The
	// tiny scale has no multi-seed runs, so there it is always 1.
	Trials int
	// Workers bounds trial parallelism (0 = GOMAXPROCS). The exported
	// metrics are identical at any worker count.
	Workers int
	// Scale selects "full" (the Run/Multi sizes) or "tiny" (the test-suite
	// sizes). Tiny keeps the CI gate and the determinism tests fast.
	Scale string
	// WallClock, when non-nil, supplies monotonic wall-clock nanoseconds
	// and enables the timing section (wall time + allocations) of each
	// entry. Timing is inherently machine-dependent, so it is opt-in: with
	// WallClock nil the output is a pure function of (code, options).
	// The clock is injected by cmd/feudalism rather than read here so that
	// everything under internal/ stays free of time.Now (the determinism
	// lint enforces this).
	WallClock func() int64
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Trials <= 0 || o.Scale == "tiny" {
		o.Trials = 1
	}
	if o.Scale == "" {
		o.Scale = "full"
	}
	return o
}

// RunBench executes every registered experiment under a fresh obs
// collector and returns the machine-readable bench file: per experiment,
// the deterministic merge of every metric registry the run created
// (protocol counters, substrate traffic, span histograms), plus timing
// when enabled. This is the artifact `feudalism bench -json` writes and
// scripts/ci.sh diffs against BENCH_baseline.json.
func RunBench(opts BenchOptions) *obs.BenchFile {
	opts = opts.withDefaults()
	file := &obs.BenchFile{
		Schema: obs.BenchSchema,
		Seed:   opts.Seed,
		Trials: opts.Trials,
		Scale:  opts.Scale,
	}
	for _, d := range descriptors() {
		file.Experiments = append(file.Experiments, benchEntry(d.id, opts.WallClock, func() {
			switch {
			case opts.Scale == "tiny":
				d.run(opts.Seed, true)
			case opts.Trials > 1 && d.matrix != nil:
				d.runMulti(simnet.Seeds(opts.Seed, opts.Trials), opts.Workers, false)
			default:
				d.run(opts.Seed, false)
			}
		}))
	}
	file.Sort()
	return file
}

// benchEntry runs one experiment under a fresh obs collector and returns
// its bench entry: the merge of every metric registry the run created,
// plus timing given a clock.
func benchEntry(id string, clock func() int64, run func()) obs.BenchExperiment {
	col := obs.NewCollector()
	restore := obs.SetCollector(col)
	defer restore()
	timing := timed(clock, run)
	return obs.BenchExperiment{ID: id, Metrics: col.Merged(), Timing: timing}
}

// timed runs fn and, given a wall clock, returns its wall time and heap
// allocations; with a nil clock fn still runs and the result is nil. It is
// the one place under internal/experiments that measures the host — the
// bench entries, the X15 cells and the huge tiers all time through it.
func timed(clock func() int64, fn func()) *obs.Timing {
	if clock == nil {
		fn()
		return nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	fn()
	elapsed := clock() - start
	runtime.ReadMemStats(&after)
	return &obs.Timing{
		WallNS:     elapsed,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
}

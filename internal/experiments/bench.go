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
	var entries []obs.BenchExperiment
	for _, d := range descriptors() {
		e, _ := benchRun(d, opts)
		entries = append(entries, e)
	}
	return benchFile(opts, entries)
}

// benchRun runs one registry entry as RunBench does and returns its bench
// entry and the table the run rendered. Trials > 1 runs the entry's
// multi-seed variant, when it has one, at the scale's sizes; RunBench's
// defaults keep the tiny scale at one trial.
func benchRun(d descriptor, opts BenchOptions) (obs.BenchExperiment, *Table) {
	var tab *Table
	e := benchEntry(d.id, opts.WallClock, func() {
		tiny := opts.Scale == "tiny"
		if opts.Trials > 1 && d.matrix != nil {
			tab = d.runMulti(simnet.Seeds(opts.Seed, opts.Trials), opts.Workers, tiny)
		} else {
			tab = d.run(opts.Seed, tiny)
		}
	})
	return e, tab
}

// benchFile assembles the bench file of a sweep run with opts, in the
// file's canonical order.
func benchFile(opts BenchOptions, entries []obs.BenchExperiment) *obs.BenchFile {
	file := &obs.BenchFile{
		Schema:      obs.BenchSchema,
		Seed:        opts.Seed,
		Trials:      opts.Trials,
		Scale:       opts.Scale,
		Experiments: entries,
	}
	file.Sort()
	return file
}

// benchEntry runs one experiment under a fresh obs collector and returns
// its bench entry: the merge of every metric registry the run created,
// plus, given a clock, its wall time and heap allocations. It is the one
// place under internal/experiments that measures the host — the bench
// entries and the X15 scale cells both time through it.
func benchEntry(id string, clock func() int64, run func()) obs.BenchExperiment {
	col := obs.NewCollector()
	restore := obs.SetCollector(col)
	defer restore()
	if clock == nil {
		run()
		return obs.BenchExperiment{ID: id, Metrics: col.Merged()}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	run()
	elapsed := clock() - start
	runtime.ReadMemStats(&after)
	return obs.BenchExperiment{ID: id, Metrics: col.Merged(), Timing: &obs.Timing{
		WallNS:     elapsed,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}}
}

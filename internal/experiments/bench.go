package experiments

import (
	"runtime"
	"slices"

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
	// Workers bounds how many entries run at once and, inside a
	// multi-trial entry, how many trials (0 = GOMAXPROCS). With WallClock
	// set, entries run one at a time. The exported metrics are identical
	// at any worker count.
	Workers int
	// Scale selects "full" (the Run/Multi sizes) or "tiny" (the test-suite
	// sizes); it must be set (RunBench panics on ""). Tiny keeps the CI
	// gate and the determinism tests fast.
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
		panic(`experiments: BenchOptions.Scale must be "full" or "tiny"`)
	}
	return o
}

// RunBench executes every registered experiment, each under its own obs
// collector, and returns the machine-readable bench file: per experiment,
// the deterministic merge of every metric registry the run created
// (protocol counters, substrate traffic, span histograms), plus timing
// when enabled. This is the artifact `feudalism bench -json` writes and
// scripts/ci.sh diffs against BENCH_baseline.json.
func RunBench(opts BenchOptions) *obs.BenchFile {
	opts = opts.withDefaults()
	entries, _ := benchRuns(descriptors(), opts)
	return benchFile(opts, entries)
}

// longestFirst names the entries that dominate a full-scale sweep, longest
// first: `feudalism bench -scale full -seed 42 -trials 1 -timing` on two
// cores (entries one at a time) measured usenet-load 3.72 s, ledger-growth
// 3.65 s, x15 3.58 s and x16 1.91 s, every other entry under 0.7 s.
// benchRuns starts them before the rest, so a sweep does not end waiting
// on one of them. The order moves only the wall time, never the output.
var longestFirst = []string{"usenet-load", "ledger-growth", "x15", "x16"}

// benchRuns runs every entry of ds as RunBench does and returns their
// bench entries and rendered tables in ds's order. Entries run side by
// side on opts.Workers workers (0 = GOMAXPROCS), those in longestFirst
// first; with a clock they run one at a time, because an entry's
// allocation counts read the process-wide runtime.MemStats.
func benchRuns(ds []descriptor, opts BenchOptions) ([]obs.BenchExperiment, []*Table) {
	rank := func(i int) int {
		if r := slices.Index(longestFirst, ds[i].id); r >= 0 {
			return r
		}
		return len(longestFirst)
	}
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank(a) - rank(b) })
	workers := opts.Workers
	if opts.WallClock != nil {
		workers = 1
	}
	entries, tables := make([]obs.BenchExperiment, len(ds)), make([]*Table, len(ds))
	simnet.Each(len(order), workers, func(k int) {
		i := order[k]
		entries[i], tables[i] = benchRun(ds[i], opts)
	})
	return entries, tables
}

// benchRun runs one registry entry as RunBench does and returns its bench
// entry and the table the run rendered. Trials > 1 runs the entry's
// multi-seed variant, when it has one, at the scale's sizes; RunBench's
// defaults keep the tiny scale at one trial.
func benchRun(d descriptor, opts BenchOptions) (obs.BenchExperiment, *Table) {
	var tab *Table
	env := Env{Seed: opts.Seed, Tiny: opts.Scale == "tiny"}
	e := benchEntry(d.id, opts.WallClock, env, func(env Env) {
		if opts.Trials > 1 && d.matrix != nil {
			tab = d.runMulti(env, simnet.Seeds(opts.Seed, opts.Trials), opts.Workers)
		} else {
			tab = d.run(env)
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

// benchEntry runs one experiment on env with a fresh obs collector and
// returns its bench entry: the merge of every metric registry the run's
// networks own, plus, given a clock, its wall time and heap allocations.
// It is the one place under internal/experiments that measures the host —
// the bench entries and the X15 scale cells both time through it, one at
// a time.
func benchEntry(id string, clock func() int64, env Env, run func(Env)) obs.BenchExperiment {
	env.col = obs.NewCollector()
	if clock == nil {
		run(env)
		return obs.BenchExperiment{ID: id, Metrics: env.col.Merged()}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	run(env)
	elapsed := clock() - start
	runtime.ReadMemStats(&after)
	return obs.BenchExperiment{ID: id, Metrics: env.col.Merged(), Timing: &obs.Timing{
		WallNS:     elapsed,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}}
}

// Command feudalism is the umbrella CLI for the reproduction of "The
// Barriers to Overthrowing Internet Feudalism" (HotNets-XVI, 2017). It
// regenerates the paper's three tables and runs the quantitative
// experiments (X1–X20, plus sensitivity sweeps) described in EXPERIMENTS.md.
//
// Usage:
//
//	feudalism table1|table2|table3|zooko          # paper tables + naming triangle
//	feudalism experiment <id> [-seed N] [-trials T] [-workers W]
//	                [-workload zipf|diurnal|flash]  # X18 schedule shape
//	feudalism names [-seed N] [-name NAME]        # a name's lifecycle on a chain
//	feudalism dedup [-seed N] [-cdc] [-stats]     # one X17 dedup world
//	feudalism all [-seed N]                       # everything, in order
//	feudalism list                                # available experiment ids
//	feudalism bench [-json out.json] [-seed N] [-trials T] [-workers W]
//	                [-scale full|tiny] [-timing]  # machine-readable bench
//	                [-cpuprofile f] [-memprofile f]
//	feudalism scale [-n 100000] [-subsystems simnet,dht,gossip] [-workers 1,2]
//	                [-shards 64] [-json out.json] [-check-speedup 1.5]
//	                [-cpuprofile f] [-memprofile f]  # X15 cells, timed
//
// With -trials T > 1 the stochastic experiments run T independent seeds in
// parallel (simnet.Trials) and report mean [p50 p95] per cell instead of a
// single draw; deterministic experiments ignore the flag.
//
// `bench` runs every registered experiment at fixed seeds and emits the
// BENCH_*.json format (see EXPERIMENTS.md): per experiment, the merged
// observability snapshot — protocol counters like dht.lookup.hops,
// substrate traffic, span histograms — plus wall time and allocations when
// -timing is set. Without -timing the bytes are deterministic: identical
// across repeated runs and across -workers counts. cmd/benchdiff compares
// two such files; scripts/ci.sh uses the pair as the merge gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/feasibility"
	"repro/internal/naming"
	"repro/internal/simnet"
)

// renderTable produces the exact stdout of the three paper-table commands;
// the golden tests pin this output byte for byte.
func renderTable(cmd string) (string, bool) {
	switch cmd {
	case "table1":
		return experiments.Table1().String(), true
	case "table2":
		return experiments.Table2().String(), true
	case "table3":
		return experiments.Table3().String() +
			fmt.Sprintf("\nBreak-even redundancy before the storage conclusion flips: %.2fx\n",
				feasibility.BreakEvenRedundancy(feasibility.PaperCloud(), feasibility.PaperDevices())), true
	}
	return "", false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code: 0 on
// success, 1 when a run fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "names":
		return runNamesCmd(args, stdout, stderr)
	case "dedup":
		return runDedupCmd(args, stdout, stderr)
	case "bench":
		return runBenchCmd(args, stdout, stderr)
	case "scale":
		return runScaleCmd(args, stdout, stderr)
	}
	fs := newFlagSet(cmd, stderr)
	seed := fs.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	switch cmd {
	case "experiment":
		return runExperimentCmd(*seed, fs.Args(), stdout, stderr)
	case "table1", "table2", "table3":
		out, _ := renderTable(cmd)
		fmt.Fprint(stdout, out)
	case "zooko":
		fmt.Fprint(stdout, experiments.ZookoTable())
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.ID, e.Desc)
		}
	case "all":
		fmt.Fprint(stdout, experiments.Table1())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.Table2())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.Table3())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.ZookoTable())
		for _, e := range experiments.Registry() {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, e.Run(*seed))
		}
	default:
		usage(stderr)
		return 2
	}
	return 0
}

// newFlagSet returns a flag set that reports errors to stderr and leaves
// the exit to run.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs; when it returns false the command stops
// with the returned exit code (0 after -h, 2 on a bad flag).
func parseFlags(fs *flag.FlagSet, args []string) (int, bool) {
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0, false
	case err != nil:
		return 2, false
	}
	return 0, true
}

// wallClock is the host clock behind every -timing flag; internal/ never
// reads it itself, so its outputs stay a function of the seed.
func wallClock() int64 { return time.Now().UnixNano() }

// runExperimentCmd implements `feudalism experiment <id> [flags]`; seed is
// the -seed given before the id, if any.
func runExperimentCmd(seed int64, args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "experiment id required; see `feudalism list`")
		return 2
	}
	id := args[0]
	rest := newFlagSet("experiment "+id, stderr)
	seed2 := rest.Int64("seed", seed, "simulation seed")
	trials := rest.Int("trials", 1, "number of independent seeds to aggregate over")
	workers := rest.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	wl := rest.String("workload", "flash", "X18 schedule shape: zipf (steady popularity), diurnal (day/night cycle), or flash (crowd spike)")
	if code, ok := parseFlags(rest, args[1:]); !ok {
		return code
	}
	e, ok := experiments.Find(id)
	if !ok {
		fmt.Fprintf(stderr, "unknown experiment %q; see `feudalism list`\n", id)
		return 2
	}
	x18, ok := experiments.WorkloadExperiment(*wl)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q; want one of %v\n", *wl, experiments.WorkloadVariants())
		return 2
	}
	if id == "x18" {
		e = x18
	}
	switch {
	case *trials > 1 && e.Multi != nil:
		fmt.Fprint(stdout, e.Multi(simnet.Seeds(*seed2, *trials), *workers))
	default:
		fmt.Fprint(stdout, e.Run(*seed2))
	}
	return 0
}

// runNamesCmd implements `feudalism names`: one name's lifecycle on a live
// simulated chain.
func runNamesCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("names", stderr)
	seed := fs.Int64("seed", 42, "simulation seed")
	name := fs.String("name", "alice.id", "name to register")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if !naming.ValidName(*name) {
		fmt.Fprintf(stderr, "invalid name %q\n", *name)
		return 2
	}
	namesDemo(stdout, *seed, *name)
	return 0
}

// runDedupCmd implements `feudalism dedup`: one X17 world at one chunking
// mode.
func runDedupCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("dedup", stderr)
	seed := fs.Int64("seed", 42, "simulation seed")
	cdc := fs.Bool("cdc", false, "use content-defined chunking instead of fixed-size")
	stats := fs.Bool("stats", false, "append per-provider tier occupancy")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	fmt.Fprint(stdout, experiments.DedupSim(*seed, *cdc, *stats))
	return 0
}

// runBenchCmd implements `feudalism bench`.
func runBenchCmd(args []string, stdout, stderr io.Writer) int {
	bfs := newFlagSet("bench", stderr)
	bseed := bfs.Int64("seed", 42, "base simulation seed")
	btrials := bfs.Int("trials", 1, "independent seeds for experiments with a Multi variant (full scale only)")
	bworkers := bfs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS); output is identical at any count")
	bscale := bfs.String("scale", "full", "experiment sizes: full or tiny")
	btiming := bfs.Bool("timing", false, "record wall time and allocations (machine-dependent; breaks byte-reproducibility)")
	bout := bfs.String("json", "", "write JSON to this file instead of stdout")
	bcpu := bfs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	bmem := bfs.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	if code, ok := parseFlags(bfs, args); !ok {
		return code
	}
	if *bscale != "full" && *bscale != "tiny" {
		fmt.Fprintf(stderr, "bench: -scale must be full or tiny, got %q\n", *bscale)
		return 2
	}
	if *bscale == "tiny" && *btrials > 1 {
		fmt.Fprintln(stderr, "bench: -scale tiny runs one trial; -trials needs -scale full")
		return 2
	}
	opts := experiments.BenchOptions{Seed: *bseed, Trials: *btrials, Workers: *bworkers, Scale: *bscale}
	if *btiming {
		opts.WallClock = wallClock
	}
	stopProfiles, err := startProfiles(*bcpu, *bmem)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	file := experiments.RunBench(opts)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := file.EncodeJSON()
	if err == nil {
		if *bout == "" {
			_, err = stdout.Write(b)
		} else {
			err = os.WriteFile(*bout, b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// speedupMinCPUs is the host size below which -check-speedup is not
// enforced: with fewer CPUs the parallel engine has no cores to win on.
const speedupMinCPUs = 4

// runScaleCmd implements `feudalism scale`: X15 cells timed one by one,
// by default the huge tiers (100k–1M nodes) on the sharded engine. Each
// cell runs at every requested worker count on the same seed; the runs
// must produce byte-identical metric snapshots (the command fails
// otherwise), and the emitted bench JSON records wall time and msgs/sec
// per worker count so CI can track the throughput trajectory and the
// parallel speedup. -shards 0 runs the single-heap engine, which times
// the X15 table's own cells.
func runScaleCmd(args []string, stdout, stderr io.Writer) int {
	sfs := newFlagSet("scale", stderr)
	sseed := sfs.Int64("seed", 42, "base simulation seed")
	stiers := sfs.String("n", "100000", "comma-separated node populations (e.g. 100000,1000000)")
	ssubs := sfs.String("subsystems", strings.Join(experiments.ScaleSubsystems(), ","), "comma-separated subsystems to sweep")
	sshards := sfs.Int("shards", experiments.HugeShards, "shard count for the sharded engine; 0 runs the single-heap engine")
	sworkers := sfs.String("workers", "", "comma-separated worker counts (default \"1,<GOMAXPROCS>\"; 1 with -shards 0)")
	sout := sfs.String("json", "", "write the bench JSON artifact to this file")
	sspeed := sfs.Float64("check-speedup", 0, fmt.Sprintf("fail unless the max/min-worker msgs/sec ratio reaches this (0 disables; enforced on hosts with at least %d CPUs)", speedupMinCPUs))
	scpu := sfs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	smem := sfs.String("memprofile", "", "write a heap profile, taken when the sweep ends, to this file")
	if code, ok := parseFlags(sfs, args); !ok {
		return code
	}

	opts := experiments.HugeOptions{Seed: *sseed, Shards: *sshards, Subsystems: strings.Split(*ssubs, ","), WallClock: wallClock}
	var err error
	if opts.Tiers, err = parseIntList(*stiers, "n"); err != nil {
		fmt.Fprintf(stderr, "scale: %v\n", err)
		return 2
	}
	for _, sub := range opts.Subsystems {
		if !slices.Contains(experiments.ScaleSubsystems(), sub) {
			fmt.Fprintf(stderr, "scale: unknown subsystem %q; want some of %v\n", sub, experiments.ScaleSubsystems())
			return 2
		}
	}
	if *sshards < 0 {
		fmt.Fprintf(stderr, "scale: -shards must be 0 or more, got %d\n", *sshards)
		return 2
	}
	if *sworkers != "" {
		if opts.Workers, err = parseIntList(*sworkers, "workers"); err != nil {
			fmt.Fprintf(stderr, "scale: %v\n", err)
			return 2
		}
	}
	if *sshards == 0 && len(opts.Workers) > 1 {
		fmt.Fprintln(stderr, "scale: -shards 0 runs the single-heap engine, which has no workers; give one -workers count")
		return 2
	}
	stopProfiles, err := startProfiles(*scpu, *smem)
	if err != nil {
		fmt.Fprintf(stderr, "scale: %v\n", err)
		return 1
	}
	cells, file, err := experiments.RunScaleHuge(opts)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(stderr, "scale: %v\n", err)
		return 1
	}
	for _, c := range cells {
		fmt.Fprintf(stdout, "%-28s shards=%-3d workers=%-3d conv=%.1f%% msgs=%d wall=%.2fs msgs/sec=%.0f\n",
			c.ID(), c.Shards, c.Workers, c.Cell.Converged*100, c.Cell.Messages,
			float64(c.Timing.WallNS)/1e9, c.MsgsPerSec)
	}
	for _, sub := range opts.Subsystems {
		for _, n := range opts.Tiers {
			if sp, ok := experiments.HugeSpeedup(cells, sub, n); ok {
				fmt.Fprintf(stdout, "%-28s speedup=%.2fx (byte-identical across worker counts)\n",
					fmt.Sprintf("x15.huge.%s.n%d", sub, n), sp)
				if *sspeed > 0 && runtime.NumCPU() >= speedupMinCPUs && sp < *sspeed {
					fmt.Fprintf(stderr, "scale: %s.n%d speedup %.2fx below required %.2fx\n", sub, n, sp, *sspeed)
					return 1
				}
			}
		}
	}
	if *sout != "" {
		b, err := file.EncodeJSON()
		if err == nil {
			err = os.WriteFile(*sout, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "scale: %v\n", err)
			return 1
		}
	}
	return 0
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that ends it and writes a heap profile to memPath; an empty path skips
// that profile. Profiles cover the run between the two calls only and never
// touch its output.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the heap profile reports as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

func parseIntList(s, flagName string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s wants positive comma-separated integers, got %q", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: feudalism <command> [-seed N]

commands:
  table1      regenerate the paper's Table 1 (problems × projects)
  table2      regenerate the paper's Table 2 (storage systems)
  table3      regenerate the paper's Table 3 (cloud vs device capacity)
  zooko       Zooko-triangle scores for all implemented naming schemes
  experiment  run one experiment by id (see list); x18 takes
              -workload zipf|diurnal|flash to pick the schedule shape
  names       one name's lifecycle on a live simulated chain;
              -name NAME picks the name
  dedup       one X17 overlapping-upload world; -cdc for content-defined
              chunking, -stats for per-provider tier occupancy
  all         tables + every experiment
  list        list experiment ids
  bench       run every experiment and emit machine-readable BENCH JSON;
              -timing adds wall time and allocations per experiment;
              -cpuprofile f / -memprofile f profile the run
  scale       time X15 cells, by default the huge tiers (100k-1M nodes)
              on the sharded engine; -n 100000,1000000 -workers 1,8
              -json out.json; -shards 0 runs the single-heap engine of
              the X15 table; -cpuprofile f / -memprofile f profile it`)
}

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
//	feudalism all [-seed N]                       # everything, in order
//	feudalism list                                # available experiment ids
//	feudalism bench [-json out.json] [-seed N] [-trials T] [-workers W]
//	                [-scale full|tiny] [-timing]  # machine-readable bench
//	                [-cpuprofile f] [-memprofile f]
//	feudalism scale [-n 100000] [-subsystems simnet,dht,gossip] [-workers 1,2]
//	                [-cpuprofile f] [-memprofile f]  # huge-tier sweep
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
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/feasibility"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "bench" {
		runBenchCmd(os.Args[2:])
		return
	}
	if cmd == "scale" {
		runScaleCmd(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Int64("seed", 42, "simulation seed (runs are deterministic per seed)")
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "table1", "table2", "table3":
		out, _ := renderTable(cmd)
		fmt.Print(out)
	case "zooko":
		fmt.Print(experiments.ZookoTable())
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Desc)
		}
	case "experiment":
		if fs.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "experiment id required; see `feudalism list`")
			os.Exit(2)
		}
		// Flags may follow the experiment id; parse the remainder too.
		id := fs.Arg(0)
		rest := flag.NewFlagSet("experiment "+id, flag.ExitOnError)
		seed2 := rest.Int64("seed", *seed, "simulation seed")
		trials := rest.Int("trials", 1, "number of independent seeds to aggregate over")
		workers := rest.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		timing := rest.Bool("timing", false, "show wall time and allocations where the experiment supports it (X15)")
		wl := rest.String("workload", "flash", "X18 schedule shape: zipf (steady popularity), diurnal (day/night cycle), or flash (crowd spike)")
		_ = rest.Parse(fs.Args()[1:])
		if *timing {
			experiments.SetWallClock(func() int64 { return time.Now().UnixNano() })
		}
		e, ok := experiments.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; see `feudalism list`\n", id)
			os.Exit(2)
		}
		if id == "x18" && *trials <= 1 {
			valid := false
			for _, v := range experiments.WorkloadVariants() {
				if v == *wl {
					valid = true
				}
			}
			if !valid {
				fmt.Fprintf(os.Stderr, "unknown workload %q; want one of %v\n", *wl, experiments.WorkloadVariants())
				os.Exit(2)
			}
			fmt.Print(experiments.WorkloadContention(*seed2, *wl))
			return
		}
		if *trials > 1 && e.Multi != nil {
			fmt.Print(e.Multi(simnet.Seeds(*seed2, *trials), *workers))
		} else {
			fmt.Print(e.Run(*seed2))
		}
	case "all":
		fmt.Print(experiments.Table1())
		fmt.Println()
		fmt.Print(experiments.Table2())
		fmt.Println()
		fmt.Print(experiments.Table3())
		fmt.Println()
		fmt.Print(experiments.ZookoTable())
		for _, e := range experiments.Registry() {
			fmt.Println()
			fmt.Print(e.Run(*seed))
		}
	default:
		usage()
		os.Exit(2)
	}
}

// runBenchCmd implements `feudalism bench`. It has its own flag set (the
// generic -seed parser would reject -scale etc.), so it is dispatched
// before the main switch.
func runBenchCmd(args []string) {
	bfs := flag.NewFlagSet("bench", flag.ExitOnError)
	bseed := bfs.Int64("seed", 42, "base simulation seed")
	btrials := bfs.Int("trials", 1, "independent seeds for experiments with a Multi variant")
	bworkers := bfs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS); output is identical at any count")
	bscale := bfs.String("scale", "full", "experiment sizes: full or tiny")
	btiming := bfs.Bool("timing", false, "record wall time and allocations (machine-dependent; breaks byte-reproducibility)")
	bout := bfs.String("json", "", "write JSON to this file instead of stdout")
	bcpu := bfs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	bmem := bfs.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	_ = bfs.Parse(args)
	if *bscale != "full" && *bscale != "tiny" {
		fmt.Fprintf(os.Stderr, "bench: -scale must be full or tiny, got %q\n", *bscale)
		os.Exit(2)
	}
	opts := experiments.BenchOptions{Seed: *bseed, Trials: *btrials, Workers: *bworkers, Scale: *bscale}
	if *btiming {
		opts.WallClock = func() int64 { return time.Now().UnixNano() }
	}
	stopProfiles, err := startProfiles(*bcpu, *bmem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	file := experiments.RunBench(opts)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	b, err := file.EncodeJSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *bout == "" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*bout, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// runScaleCmd implements `feudalism scale`: the huge-tier (100k–1M node)
// X15 sweep on the sharded engine. Each cell runs at every requested
// worker count on the same seed; the runs must produce byte-identical
// metric snapshots (the command fails otherwise), and the emitted bench
// JSON records wall time and msgs/sec per worker count so CI can track the
// throughput trajectory and the parallel speedup.
func runScaleCmd(args []string) {
	sfs := flag.NewFlagSet("scale", flag.ExitOnError)
	sseed := sfs.Int64("seed", 42, "base simulation seed")
	stiers := sfs.String("n", "100000", "comma-separated node populations (e.g. 100000,1000000)")
	ssubs := sfs.String("subsystems", "simnet,dht,gossip", "comma-separated subsystems to sweep")
	sshards := sfs.Int("shards", experiments.HugeShards, "shard count for the sharded engine")
	sworkers := sfs.String("workers", "", "comma-separated worker counts (default \"1,<GOMAXPROCS>\")")
	sout := sfs.String("json", "", "write the bench JSON artifact to this file")
	sspeed := sfs.Float64("check-speedup", 0, "fail unless the max/min-worker msgs/sec ratio reaches this (0 disables)")
	smincpu := sfs.Int("min-cpus", 4, "enforce -check-speedup only on hosts with at least this many CPUs")
	scpu := sfs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	smem := sfs.String("memprofile", "", "write a heap profile, taken when the sweep ends, to this file")
	_ = sfs.Parse(args)

	opts := experiments.HugeOptions{
		Seed:      *sseed,
		Tiers:     parseIntList(*stiers, "n"),
		Shards:    *sshards,
		WallClock: func() int64 { return time.Now().UnixNano() },
	}
	if subs := strings.Split(*ssubs, ","); *ssubs != "" {
		opts.Subsystems = subs
	}
	if *sworkers != "" {
		opts.Workers = parseIntList(*sworkers, "workers")
	}
	stopProfiles, err := startProfiles(*scpu, *smem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}
	cells, file, err := experiments.RunScaleHuge(opts)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale: %v\n", err)
		os.Exit(1)
	}
	for _, c := range cells {
		fmt.Printf("%-28s shards=%-3d workers=%-3d conv=%.1f%% msgs=%d wall=%.2fs msgs/sec=%.0f\n",
			c.ID(), c.Shards, c.Workers, c.Cell.Converged*100, c.Cell.Messages,
			float64(c.Timing.WallNS)/1e9, c.MsgsPerSec)
	}
	for _, sub := range opts.Subsystems {
		for _, n := range opts.Tiers {
			if sp, ok := experiments.HugeSpeedup(cells, sub, n); ok {
				fmt.Printf("%-28s speedup=%.2fx (byte-identical across worker counts)\n",
					fmt.Sprintf("x15.huge.%s.n%d", sub, n), sp)
				if *sspeed > 0 && runtime.NumCPU() >= *smincpu && sp < *sspeed {
					fmt.Fprintf(os.Stderr, "scale: %s.n%d speedup %.2fx below required %.2fx\n", sub, n, sp, *sspeed)
					os.Exit(1)
				}
			}
		}
	}
	if *sout != "" {
		b, err := file.EncodeJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scale: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*sout, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "scale: %v\n", err)
			os.Exit(1)
		}
	}
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

func parseIntList(s, flagName string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "scale: -%s wants positive comma-separated integers, got %q\n", flagName, s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: feudalism <command> [-seed N]

commands:
  table1      regenerate the paper's Table 1 (problems × projects)
  table2      regenerate the paper's Table 2 (storage systems)
  table3      regenerate the paper's Table 3 (cloud vs device capacity)
  zooko       Zooko-triangle scores for all implemented naming schemes
  experiment  run one experiment by id (see list); x18 takes
              -workload zipf|diurnal|flash to pick the schedule shape
  all         tables + every experiment
  list        list experiment ids
  bench       run every experiment and emit machine-readable BENCH JSON;
              -cpuprofile f / -memprofile f profile the run
  scale       run the huge-tier (100k-1M node) X15 sweep on the sharded
              engine; -n 100000,1000000 -workers 1,8 -json out.json;
              -cpuprofile f / -memprofile f profile the sweep`)
}

// Command benchdiff compares two BENCH_*.json files produced by
// `feudalism bench -json` and exits nonzero when the new file regresses
// relative to the old one.
//
// Usage:
//
//	benchdiff [-tol F] old.json new.json
//	benchdiff -history [-tol F] old.json new.json
//
// A metric regresses when |new-old| > tol*|old| (a metric that was zero
// must stay exactly zero); a missing experiment or metric in the new file
// is always a regression, while extra ones are fine — adding coverage
// should never fail the gate. scripts/ci.sh runs this as the merge gate
// against the checked-in BENCH_baseline.json.
//
// -history is the one timing gate, run nightly: both files must come from
// `-timing` runs, and for every experiment present in both with timing it
// derives msgs/sec (net.msg.delivered over wall seconds) and fails when
// the new run's throughput drops more than tputTol below the old one
// (one-sided: getting faster never fails). Metric snapshots are still
// compared with -tol so a nightly that silently changed its workload is
// caught too. scripts/ci.sh runs this against BENCH_PR3.json when
// CI_NIGHTLY=1.
//
// Exit codes: 0 when nothing regressed, 1 on any regression, 2 on a usage
// error or a file that cannot be read as a bench file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

const (
	// tputTol is the relative msgs/sec drop -history allows before failing.
	tputTol = 0.25
	// minWall is the old wall time under which -history reports an
	// experiment but does not gate it: scheduler noise dominates there.
	minWall = 100 * time.Millisecond
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0, "relative tolerance per metric (0 = exact match)")
	history := fs.Bool("history", false, "throughput mode: derive msgs/sec from timing and gate one-sided regressions")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-tol F] [-history] old.json new.json")
		fs.PrintDefaults()
	}
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	oldFile, err := obs.LoadBenchFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newFile, err := obs.LoadBenchFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	problems := obs.Compare(oldFile, newFile, *tol)
	if *history {
		problems = append(problems, compareThroughput(stdout, oldFile, newFile)...)
	}
	if len(problems) == 0 {
		fmt.Fprintf(stdout, "benchdiff: OK (%d experiments, tol=%g)\n", len(newFile.Experiments), *tol)
		return 0
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "REGRESSION %s\n", p)
	}
	fmt.Fprintf(stderr, "benchdiff: %d regression(s) between %s and %s\n",
		len(problems), fs.Arg(0), fs.Arg(1))
	return 1
}

// throughput derives an experiment's delivered msgs/sec from its metric
// snapshot and timing section. Experiments that deliver no substrate
// traffic (pure-analysis tables) or carry no timing report ok=false and
// are skipped by the gate.
func throughput(e obs.BenchExperiment) (float64, bool) {
	if e.Timing == nil || e.Timing.WallNS <= 0 || e.Metrics == nil {
		return 0, false
	}
	msgs, ok := e.Metrics.Counters["net.msg.delivered"]
	if !ok || msgs <= 0 {
		return 0, false
	}
	return float64(msgs) / (float64(e.Timing.WallNS) / 1e9), true
}

// compareThroughput is the -history gate: for every experiment with a
// derivable msgs/sec in both files, the new run must stay within tputTol
// of the old run's throughput in the slow direction. An experiment whose
// old record has throughput but whose new record lost its timing section
// is a regression too — the nightly stopped measuring. Experiments whose
// old wall time is under minWall are printed to w but never gated: at
// sub-100ms runtimes the ratio measures the host scheduler, not the code.
func compareThroughput(w io.Writer, old, new *obs.BenchFile) []obs.Problem {
	newByID := map[string]obs.BenchExperiment{}
	for _, e := range new.Experiments {
		newByID[e.ID] = e
	}
	olds := append([]obs.BenchExperiment(nil), old.Experiments...)
	sort.Slice(olds, func(i, j int) bool { return olds[i].ID < olds[j].ID })
	var probs []obs.Problem
	compared := 0
	for _, oe := range olds {
		oldTput, ok := throughput(oe)
		if !ok {
			continue
		}
		ne, found := newByID[oe.ID]
		if !found {
			continue // Compare already reported the missing experiment
		}
		newTput, ok := throughput(ne)
		if !ok {
			probs = append(probs, obs.Problem{
				Experiment: oe.ID, Metric: "throughput.msgs_per_sec", Old: oldTput,
				Detail: "new file has no timing/traffic to derive msgs/sec from (run bench with -timing)",
			})
			continue
		}
		gated := oe.Timing.WallNS >= int64(minWall)
		note := ""
		if !gated {
			note = fmt.Sprintf("  [under %v, not gated]", minWall)
		} else {
			compared++
		}
		fmt.Fprintf(w, "history %-24s msgs/sec old=%.0f new=%.0f (%+.1f%%)%s\n",
			oe.ID, oldTput, newTput, (newTput/oldTput-1)*100, note)
		if gated && newTput < oldTput*(1-tputTol) {
			probs = append(probs, obs.Problem{
				Experiment: oe.ID, Metric: "throughput.msgs_per_sec", Old: oldTput, New: newTput,
				Detail: fmt.Sprintf("msgs/sec dropped beyond -%.0f%%", tputTol*100),
			})
		}
	}
	if compared == 0 {
		probs = append(probs, obs.Problem{
			Metric: "throughput.msgs_per_sec",
			Detail: "no experiment pair had timing in both files; the history gate compared nothing",
		})
	}
	return probs
}

// Command bench is the repository's benchmark: five fixed-work workloads
// over the simulator's public API, nine end-to-end metrics per workload, and
// a separate traced run that produces the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

var workloads = []*workloadDef{
	&rpcEchoWorkload,
	&gossipShardedWorkload,
	&dhtMixedWorkload,
	&flashStackWorkload,
	&chainLedgerWorkload,
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// report is the last line of standard output, in the format the driver
// reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedShare is the share of the op list the traced pass measures: a third,
// so that the pass over all five workloads and the fixtures ends in a minute.
// Its set-up is sized by the same number where set-up is a share of the list.
const tracedShare = 1.0 / 3

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all (one process each)")
		seed     = flag.Int64("seed", 1, "seed of every generated input and of the simulator")
		seconds  = flag.Float64("seconds", 13, "size of the measured op list, in seconds of the reference box")
		trace    = flag.Int("trace", 0, "1 runs the traced pass, on a third of the op list, and prints the per-layer metrics")
		out      = flag.String("out", "out", "directory the traced pass writes spans and layer metrics to")
		fixtures = flag.String("fixtures", "", "traced pass: take the fixture metrics from this file instead of running the fixtures")
		repeat   = flag.Int("repeat", 0, "noise self-check: two sets of N runs on -seed, held to the instrument's bounds")
		seeds    = flag.Int("seeds", 0, "the driver's reading: two sets of N runs on N consecutive seeds, held to BENCHMARK.json's bounds")
	)
	flag.Parse()
	// The load is single-threaded; the second core only absorbs GC.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out, fixtures: *fixtures}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if findWorkload(*name) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var err error
	switch {
	case *repeat > 0:
		err = noiseCheck(names, cfg, *repeat, false)
	case *seeds > 0:
		err = noiseCheck(names, cfg, *seeds, true)
	case *name == "all":
		_, err = runAll(names, cfg, os.Stdout)
	default:
		err = runOne(findWorkload(*name), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its metrics by name with
// their units and, last, the driver's JSON line.
func runOne(w *workloadDef, cfg runConfig) error {
	if cfg.trace {
		cfg.seconds *= tracedShare
	}
	r, err := run(w, cfg)
	defs, ms := endToEnd, r.endToEnd()
	var files []string
	if cfg.trace && err == nil {
		defs = perLayer
		ms, files, err = r.traced()
	}
	fmt.Printf("%s seed=%d seconds=%.4g nodes=%d ops=%d measured=%.3fs harness_self=%.4fs\n",
		w.name, cfg.seed, cfg.seconds, r.sim.nodes(), r.st.resolved, r.wallS, r.wallS-r.busyS)
	// An op has failed when the simulator did not produce its outcome exactly
	// once. A simulated request that was refused, shed or timed out is an
	// outcome the model produced; op_ok_share counts those.
	rep := report{Correct: err == nil, Attempted: r.st.attempted, Failed: r.st.attempted - r.st.resolved + r.st.dup, Metrics: map[string]reportValue{}}
	for _, d := range defs {
		note := fmt.Sprintf("%s, %s is better", d.kind, d.better)
		switch {
		case d.abs > d.bound*ms[d.name]:
			note += fmt.Sprintf(", bound %g %s", d.abs, d.unit)
		case d.bound > 0:
			note += fmt.Sprintf(", bound %g%%", 100*d.bound)
		}
		if d.name == "sim_p99_s" {
			note += fmt.Sprintf(", %d samples", r.st.lat.n)
		}
		fmt.Printf("  %-32s %18.6f %-6s %s\n", d.name, ms[d.name], d.unit, note)
		rep.Metrics[d.name] = reportValue{ms[d.name], d.unit}
	}
	for _, f := range files {
		fmt.Println("  wrote", f)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}

// traced finishes a traced run: the fixtures (run here unless an earlier
// process left their metrics in a file), the per-layer metrics and the files
// under the output directory.
func (r *result) traced() (metricSet, []string, error) {
	snap, snapNS := encodeSnapshot(r.col, r.tr)
	var fix metricSet
	if r.cfg.fixtures == "" {
		fix = runFixtures(r.cfg, r.tr)
	} else if err := readJSON(r.cfg.fixtures, &fix); err != nil {
		return nil, nil, err
	}
	m := r.layers(fix)
	m["obs.snapshot_ns"] = snapNS
	m["trace.spans"] = float64(len(r.tr.spans))
	files, err := r.writeTrace(r.cfg.outDir, snap, m)
	return m, files, err
}

// runAll runs each named workload in a process of its own, so that no
// workload inherits another's heap, and returns their reports. A traced pass
// runs the layer fixtures once, here, and hands every child the result.
func runAll(names []string, cfg runConfig, echo *os.File) (map[string]report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.outDir}
	if cfg.trace {
		if cfg.fixtures == "" {
			files, err := writeFixtures(cfg)
			if err != nil {
				return nil, err
			}
			cfg.fixtures = files[0]
			for _, f := range files {
				fmt.Fprintln(echo, "fixtures: wrote", f)
			}
		}
		args = append(args, "-trace", "1", "-fixtures", cfg.fixtures)
	}
	reports := map[string]report{}
	var failed []string
	for _, name := range names {
		cmd := exec.Command(self, append([]string{"-workload", name}, args...)...)
		cmd.Stderr = os.Stderr
		outb, runErr := cmd.Output()
		lines := strings.Split(strings.TrimRight(string(outb), "\n"), "\n")
		if echo != nil {
			fmt.Fprintln(echo, strings.Join(lines[:len(lines)-1], "\n"))
		}
		var rep report
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
			return nil, fmt.Errorf("%s: no result line: %v (%v)", name, jerr, runErr)
		}
		reports[name] = rep
		if runErr != nil || !rep.Correct {
			failed = append(failed, name)
		}
	}
	if echo != nil {
		line, jerr := json.Marshal(reports)
		if jerr != nil {
			return nil, jerr
		}
		fmt.Fprintln(echo, string(line))
	}
	if len(failed) > 0 {
		return reports, fmt.Errorf("output checks failed on %s", strings.Join(failed, ", "))
	}
	return reports, nil
}

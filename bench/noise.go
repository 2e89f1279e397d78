package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method (Python's statistics.quantiles(xs, n=4)),
// which is how the driver reads a set of runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// noiseCheck is the benchmark's check on itself: two sets of n untraced runs
// of each workload, with per workload and metric the median, minimum,
// maximum and spread of all 2n values.
//
// Read one way (-repeat), every run is on cfg.seed and the spread is the
// farthest a run lies from its set's median. It fails if that exceeds the
// instrument's bound or if the two sets' medians disagree by more than it:
// what a claim on one seed has to clear.
//
// Read the driver's way (-seeds), run i of each set is on seed cfg.seed+i
// and the spread is the distance between the quartiles as a share of the
// median. It fails if that exceeds BENCHMARK.json's bound (setup_s excepted,
// as in the driver), if the second set's median is worse than the first's
// by more than that bound, or if a count or simulated metric differs
// between the two runs of one seed by more than the instrument's bound.
func noiseCheck(names []string, cfg runConfig, n int, seeds bool) error {
	cfg.trace = false
	sets := [2]map[string][]report{{}, {}}
	for set := range sets {
		for i := 0; i < n; i++ {
			c := cfg
			if seeds {
				c.seed += int64(i)
			}
			reports, err := runAll(names, c, nil)
			if err != nil {
				return err
			}
			for _, name := range names {
				sets[set][name] = append(sets[set][name], reports[name])
			}
			fmt.Printf("set %d run %d (seed %d) done\n", set+1, i+1, c.seed)
		}
	}
	var bad []string
	fmt.Printf("\n%-15s %-20s %14s %14s %14s %8s %8s %9s\n", "workload", "metric", "median", "min", "max", "spread", "bound", "set2/set1")
	for _, name := range names {
		for _, d := range endToEnd {
			var vals [2][]float64
			for set := range sets {
				for _, rep := range sets[set][name] {
					vals[set] = append(vals[set], rep.Metrics[d.name].Value)
				}
			}
			all := append(append([]float64(nil), vals[0]...), vals[1]...)
			sort.Float64s(all)
			var spread, bound float64
			var mark string
			if seeds {
				spread, bound, mark = readSeeds(d, vals, cfg.seed)
			} else {
				spread, bound, mark = readOneSeed(d, vals)
			}
			if mark != "" {
				bad = append(bad, name+"/"+d.name+mark)
			}
			fmt.Printf("%-15s %-20s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %9.4f%s\n",
				name, d.name, median(all), all[0], all[len(all)-1], 100*spread, 100*bound, median(vals[1])/median(vals[0]), mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("noise check: %v", bad)
	}
	return nil
}

// readOneSeed reads two sets of runs of one seed against the instrument's
// bound: spread is the farthest a run strays from its set's median, as a
// share of it.
func readOneSeed(d metricDef, vals [2][]float64) (spread, bound float64, mark string) {
	med := [2]float64{median(vals[0]), median(vals[1])}
	bound = d.allowed(med[0]) / med[0]
	for set, vs := range vals {
		for _, v := range vs {
			spread = math.Max(spread, math.Abs(v-med[set])/med[set])
			if math.Abs(v-med[set]) > d.allowed(med[set]) {
				mark = " STRAYS"
			}
		}
	}
	if math.Abs(med[1]-med[0]) > d.allowed(med[0]) {
		mark += " SETS-DISAGREE"
	}
	return spread, bound, mark
}

// readSeeds reads two sets of runs on consecutive seeds the way the driver
// does, against BENCHMARK.json's bound.
func readSeeds(d metricDef, vals [2][]float64, seed0 int64) (spread, bound float64, mark string) {
	var med [2]float64
	for set := range vals {
		q1, q2, q3 := quartiles(vals[set])
		med[set] = q2
		spread = math.Max(spread, (q3-q1)/q2)
	}
	worse := med[1]/med[0] - 1
	if d.better == "higher" {
		worse = med[0]/med[1] - 1
	}
	if d.name != "setup_s" && spread > d.driver {
		mark = " SPREAD"
	}
	if worse > d.driver {
		mark += " DRIFT"
	}
	for i := range vals[0] {
		if d.kind != "host" && math.Abs(vals[0][i]-vals[1][i]) > d.allowed(vals[0][i]) {
			mark += fmt.Sprintf(" SEED%d-DIFFERS", seed0+int64(i))
		}
	}
	return spread, d.driver, mark
}

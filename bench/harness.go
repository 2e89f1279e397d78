package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed int64
	// seconds sizes the measured op list: its length is seconds × the
	// workload's per-second quota, chosen so that the measured phase takes
	// about this long on the 2-core reference box. The work is fixed by
	// (seed, seconds), not by the clock, so every count is the same on two
	// commits.
	seconds float64
	// short shrinks populations to test scale; only bench_test.go sets it.
	short  bool
	trace  bool
	outDir string
	// fixtures names a file of fixture metrics an earlier process measured;
	// a traced run given none runs the fixtures itself.
	fixtures string
}

// quota returns seconds × perSecond as a whole number of at least min.
func (c runConfig) quota(perSecond float64, min int) int {
	n := int(c.seconds*perSecond + 0.5)
	if n < min {
		n = min
	}
	return n
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// why records why the workload was chosen and what it bypasses.
	why string
	// build is the whole of set-up except the two forced GCs: population,
	// bootstrap, pre-generated inputs and a warm-up slice of the same
	// operation mix. Ops of the warm-up resolve into st and are discarded.
	build func(c runConfig, st *opStats, tr *tracer) sim
}

// sim is a built world with its measured op list ready to launch.
type sim interface {
	net() *simnet.Network
	nodes() int
	// ops is the length of the measured op list.
	ops() int
	// launch starts the measured op list: the first calls of a closed loop
	// or the generator event of an open one.
	launch()
	// advance runs the simulation to frac of the measured phase's virtual
	// span; advance(1) runs it to the end, draining what is in flight.
	advance(frac float64)
	// check returns an error if the workload's outputs are wrong.
	check() error
	// layer adds the workload-sourced per-layer metrics of a traced run;
	// fix holds the fixture-sourced ones, for self costs that subtract one.
	layer(m metricSet, r *result, fix metricSet)
}

// result is everything one run measured.
type result struct {
	w       *workloadDef
	cfg     runConfig
	sim     sim
	st      *opStats
	tr      *tracer
	setupS  float64 // start of the run to start of the measured phase
	wallS   float64 // measured phase, one wall-clock span around all of it
	busyS   float64 // the part of wallS spent inside Run/RunAll
	mallocs uint64
	bytes   uint64
	heap    uint64
	// net0 and net1 are the network-wide traffic counters at the start and
	// end of the measured phase.
	net0, net1 simnet.Trace
	// obs0 and obs1 are the merged public counters at the same boundaries
	// (traced runs only); col is the collector they were read through.
	obs0, obs1 *obs.Snapshot
	col        *collector
	// slices are the measured phase of a traced run, slice by slice.
	slices []slice
}

// slice is one slice of a traced run's measured phase: the messages it
// delivered and the host time it took. Slices alternate, traced first.
type slice struct {
	msgs    int64
	seconds float64
}

// traceSlices is how many slices the measured phase of a traced run is cut
// into; odd slices run with the tracer on and even ones without, so the two
// halves see the same slow host-noise waves.
const traceSlices = 100

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func forceGC() {
	runtime.GC()
	runtime.GC()
}

// run executes one workload: set-up, the measured phase and the output
// checks.
func run(w *workloadDef, cfg runConfig) (*result, error) {
	r := &result{w: w, cfg: cfg, st: &opStats{}}
	if cfg.trace {
		r.tr = newTracer()
		// For a traced run only: the collector keeps every world built under
		// it alive, which would spoil heap_bytes_per_node. It is gone again
		// before the fixtures build theirs.
		r.col = installCollector()
		defer r.col.restore()
	}

	t0 := time.Now()
	forceGC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	id := r.tr.begin("setup", 1)
	r.sim = w.build(cfg, r.st, r.tr)
	r.tr.do("runtime.GC", 2, forceGC)
	r.tr.end(id)
	r.setupS = time.Since(t0).Seconds()

	s, nw := r.sim, r.sim.net()
	r.st.reset(s.ops())
	if r.col != nil {
		r.obs0 = r.col.snapshot(r.tr)
	}
	r.net0 = *nw.Trace()
	runtime.ReadMemStats(&ms)
	mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc

	id = r.tr.begin("measured", 1)
	t0 = time.Now()
	s.launch()
	if !cfg.trace {
		b0 := time.Now()
		s.advance(1)
		r.busyS = time.Since(b0).Seconds()
	} else {
		r.runSliced()
	}
	r.wallS = time.Since(t0).Seconds()
	r.tr.end(id)

	runtime.ReadMemStats(&ms)
	r.mallocs, r.bytes = ms.Mallocs-mallocs0, ms.TotalAlloc-bytes0
	r.net1 = *nw.Trace()
	if r.col != nil {
		r.obs1 = r.col.snapshot(r.tr)
	}
	forceGC()
	runtime.ReadMemStats(&ms)
	// The world, not the harness: the scoreboard's bitmap is the one harness
	// buffer that grows with the op list, so it is taken back out.
	if own := heapBase + 8*uint64(cap(r.st.seen)); ms.HeapAlloc > own {
		r.heap = ms.HeapAlloc - own
	}
	runtime.KeepAlive(s)
	return r, r.check()
}

// runSliced is the measured phase of a traced run: the same op list cut
// into traceSlices slices of equal virtual length. Odd slices record a span
// with the network's counters at both boundaries; even slices only run.
func (r *result) runSliced() {
	nw := r.sim.net()
	for i := 1; i <= traceSlices; i++ {
		frac := float64(i) / traceSlices
		ops0, n0 := r.st.resolved, *nw.Trace()
		t0 := time.Now()
		if i%2 == 0 {
			r.sim.advance(frac)
			r.busyS += time.Since(t0).Seconds()
		} else {
			id := r.tr.begin("simnet.Run", 1)
			r.sim.advance(frac)
			r.tr.end(id)
			n1 := *nw.Trace()
			sp := &r.tr.spans[id]
			sp.Counts = map[string]int64{
				"ops":       int64(r.st.resolved - ops0),
				"sent":      n1.Sent - n0.Sent,
				"delivered": n1.Delivered - n0.Delivered,
				"dropped":   n1.Dropped - n0.Dropped,
			}
			r.busyS += float64(sp.End-sp.Start) / 1e9
		}
		r.slices = append(r.slices, slice{nw.Trace().Delivered - n0.Delivered, time.Since(t0).Seconds()})
	}
}

// traceOverhead is 1 − traced rate ÷ untraced rate, taken pair by pair over
// adjacent slices — a traced one and the untraced one after it, under the
// same host noise — and reported as the median over the pairs. The rate is
// in delivered messages, not ops: ops resolve in bursts (a gossip item, a
// block), while every slice that does work delivers messages.
func (r *result) traceOverhead() float64 {
	var shares []float64
	for i := 0; i+1 < len(r.slices); i += 2 {
		t, b := r.slices[i], r.slices[i+1]
		if t.msgs > 0 && b.msgs > 0 {
			shares = append(shares, 1-(float64(t.msgs)/t.seconds)/(float64(b.msgs)/b.seconds))
		}
	}
	if len(shares) == 0 {
		return 0
	}
	return median(shares)
}

// endToEnd computes the nine end-to-end metrics.
func (r *result) endToEnd() metricSet {
	ops := float64(r.st.resolved)
	return metricSet{
		"setup_s":             r.setupS,
		"ops_per_s":           ops / r.wallS,
		"allocs_per_op":       float64(r.mallocs) / ops,
		"alloc_bytes_per_op":  float64(r.bytes) / ops,
		"heap_bytes_per_node": float64(r.heap) / float64(r.sim.nodes()),
		"msgs_per_op":         float64(r.net1.Delivered-r.net0.Delivered) / ops,
		"op_ok_share":         float64(r.st.ok) / float64(r.st.attempted),
		"sim_p50_s":           r.st.lat.quantile(0.50),
		"sim_p99_s":           r.st.lat.quantile(0.99),
	}
}

// check is the output check every workload shares; the workload's own check
// follows it.
func (r *result) check() error {
	st := r.st
	if st.dup != 0 || st.resolved != st.attempted {
		return fmt.Errorf("%s: %d of %d ops resolved, %d resolved twice; every launched op must resolve exactly once",
			r.w.name, st.resolved, st.attempted, st.dup)
	}
	// At test scale the measured phase is milliseconds long and launching it
	// is a visible share; the limit is for the sizes the benchmark runs at.
	if self := r.wallS - r.busyS; self >= 0.05*r.wallS && !r.cfg.short {
		return fmt.Errorf("%s: harness self time %.3fs is %.1f%% of the measured phase; must stay under 5%%",
			r.w.name, self, 100*self/r.wallS)
	}
	return r.sim.check()
}

// conserved checks Sent = Delivered + Dropped, allowing up to inflight
// messages still on the wire (0 for a workload that ends quiescent).
func conserved(nw *simnet.Network, inflight int64) error {
	t := nw.Trace()
	if d := t.Sent - t.Delivered - t.Dropped; d < 0 || d > inflight {
		return fmt.Errorf("message conservation: sent %d, delivered %d, dropped %d leaves %d in flight (at most %d expected)",
			t.Sent, t.Delivered, t.Dropped, d, inflight)
	}
	return nil
}

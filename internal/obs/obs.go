// Package obs is the unified observability layer: a seed-deterministic
// metrics registry that the simulator substrate and every protocol
// subsystem publish into, plus machine-readable snapshot export (JSON/CSV)
// and the bench-file format the CI gate diffs.
//
// Design constraints, in order:
//
//  1. Determinism. Given the same seed and workload, everything exported
//     is bit-for-bit identical — across repeated runs and across trial
//     worker counts. Counters and histogram counts merge by integer addition,
//     exports iterate names in sorted order, and nothing here reads the
//     wall clock or global randomness. Spans are stamped with *virtual*
//     time supplied by the caller.
//  2. Zero interference. Recording a metric must not perturb the
//     simulation: no RNG draws, no event scheduling, and cheap enough
//     (a field increment after one-time name resolution) that annotating
//     a hot path does not distort what is being measured.
//  3. One namespace. Metric names are flat dotted paths,
//     `<subsystem>.<object>.<measure>` (e.g. `dht.lookup.hops`,
//     `chain.reorg.depth`, `storage.repair.bytes`); the conventions are
//     documented in DESIGN.md so every future subsystem reports the same
//     way.
//
// A Registry is single-goroutine, like the simulation that feeds it: one
// Registry belongs to one simnet.Network. Cross-trial aggregation goes
// through Collector, which gathers whole registries and merges them in a
// deterministic order.
package obs

import "time"

// Counter is a monotonically increasing (or absolutely set) integer
// metric. The zero value is ready to use; Registry.Counter hands out
// pointers so call sites resolve the name once and increment a field
// thereafter.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (negative deltas are ignored; counters never decrease).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n += delta
	}
}

// Set overwrites the counter with an absolute value. Publish hooks use
// this to mirror externally-accumulated totals (e.g. simnet's Trace) into
// the registry idempotently.
func (c *Counter) Set(v int64) { c.n = v }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a point-in-time float metric (a height, a ratio, a quantile
// published from elsewhere). Merging averages gauges across registries.
type Gauge struct {
	v   float64
	set bool
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.v, g.set = v, true }

// Value returns the last set value (0 if never set).
func (g *Gauge) Value() float64 { return g.v }

// IsSet reports whether the gauge was ever set.
func (g *Gauge) IsSet() bool { return g.set }

// Span is an in-progress timed operation. End records the duration (in
// seconds of virtual time) into the histogram named at StartSpan. The zero
// Span is inert.
type Span struct {
	r     *Registry
	name  string
	start time.Duration
}

// End completes the span at virtual time now. Calling End on a zero Span
// is a no-op; ending before the start clamps to zero duration.
func (s Span) End(now time.Duration) {
	if s.r == nil {
		return
	}
	d := now - s.start
	if d < 0 {
		d = 0
	}
	s.r.Histogram(s.name).Observe(d.Seconds())
}

// Registry is one simulation's metric namespace. It is not safe for
// concurrent use — a simulation runs on one goroutine, and parallel trials
// each own their Network and therefore their Registry.
type Registry struct {
	label    string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	memo     map[string]any

	publish []func(*Registry)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// SetLabel tags the registry for deterministic merge ordering; simnet sets
// "seed:<seed>" so trial merges sort by seed regardless of which worker
// finished first.
func (r *Registry) SetLabel(label string) { r.label = label }

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Memo returns the value cached under key, building it with build on first
// use. It is the batched-resolution hook for subsystems that annotate many
// nodes with the same network-scoped metrics: resolve the whole bundle of
// named counters once per registry, cache the bundle under a subsystem key,
// and hand every subsequent constructor the cached pointer set. At
// 10k-node populations this turns O(nodes × metrics) map lookups into
// O(metrics) without adding any branch to the per-event increment path.
func (r *Registry) Memo(key string, build func() any) any {
	if r.memo == nil {
		r.memo = map[string]any{}
	}
	v, ok := r.memo[key]
	if !ok {
		v = build()
		r.memo[key] = v
	}
	return v
}

// StartSpan opens a span named name at virtual time now. The duration
// lands in the histogram of the same name when End is called.
func (r *Registry) StartSpan(name string, now time.Duration) Span {
	return Span{r: r, name: name, start: now}
}

// OnPublish registers a hook run at snapshot time, before values are
// exported. The substrate uses this to mirror its Trace counters and
// latency quantiles into the registry without touching the per-message
// hot path.
func (r *Registry) OnPublish(f func(*Registry)) { r.publish = append(r.publish, f) }

// runPublish fires the publish hooks (in registration order).
func (r *Registry) runPublish() {
	for _, f := range r.publish {
		f(r)
	}
}

package main

// metricDef names one metric the benchmark prints. BENCHMARK.json carries
// the same tables; bench_test.go checks that the two agree name for name.
type metricDef struct {
	name string
	unit string
	// kind says what the number is made of: "host" reads a wall clock and is
	// noisy; "sim" is a simulated statistic and "count" a count made by the
	// runtime or the program — both are functions of the seed and repeat.
	kind   string
	better string
	// bound and abs are the instrument's regression bound (end-to-end only):
	// between two commits measured on one seed the metric may worsen by
	// bound as a share of the parent's value, or by abs in the metric's own
	// unit, whichever is larger. A claim is stated against these, and
	// -repeat checks that runs of one seed stay inside them.
	bound, abs float64
	// driver is the bound BENCHMARK.json carries. The driver reads ten runs
	// on ten seeds, so it has to clear three times the metric's seed-to-seed
	// quartile spread on the workload where that is widest; it is a tripwire
	// for a ten-seed median, not the resolution of the instrument.
	driver float64
}

// allowed is how far a value may lie from ref and still agree with it.
func (d metricDef) allowed(ref float64) float64 {
	if a := d.bound * ref; a > d.abs {
		return a
	}
	return d.abs
}

// endToEnd is what a user of the simulator sees, per workload. Only setup_s
// and ops_per_s read a wall clock. alloc_bytes_per_op has an absolute floor
// of one byte because rpc_echo allocates 1.2 B per op, none of it per call,
// and a 0.3 MB step that only some runs take moves that by 6%.
var endToEnd = []metricDef{
	{"setup_s", "s", "host", "lower", 0.10, 0, 0.25},
	{"ops_per_s", "op/s", "host", "higher", 0.10, 0, 0.25},
	{"allocs_per_op", "count", "count", "lower", 0.01, 0, 0.10},
	{"alloc_bytes_per_op", "B", "count", "lower", 0.02, 1, 0.20},
	{"heap_bytes_per_node", "B", "count", "lower", 0.02, 0, 0.10},
	{"msgs_per_op", "count", "sim", "lower", 0.005, 0, 0.10},
	{"op_ok_share", "ratio", "sim", "higher", 0, 0.002, 0.03},
	{"sim_p50_s", "s", "sim", "lower", 0.01, 0, 0.10},
	{"sim_p99_s", "s", "sim", "lower", 0.01, 0, 0.25},
}

// perLayer is the traced pass's output: metrics of single layers, named
// after the repository's modules. A "fixture" metric times only calls into
// that layer's public API on a shared fixture world and reads the same on
// every workload, up to host noise; a "counter" metric is a public counter
// read at the boundaries of the workload's measured phase, exact for a
// seed, and zero on a workload that bypasses the layer.
var perLayer = []metricDef{
	// simnet: engine and substrate.
	{name: "simnet.build_ns_per_node", unit: "ns", kind: "fixture", better: "lower"},
	{name: "simnet.build_bytes_per_node", unit: "B", kind: "fixture", better: "lower"},
	{name: "simnet.timer_ns_per_fire", unit: "ns", kind: "fixture", better: "lower"},
	{name: "simnet.send_ns_per_msg", unit: "ns", kind: "fixture", better: "lower"},
	{name: "simnet.send_allocs_per_msg", unit: "count", kind: "fixture", better: "lower"},
	{name: "simnet.shard.send_ns_per_msg", unit: "ns", kind: "fixture", better: "lower"},
	{name: "simnet.shard.idle_window_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "simnet.shard.parallel_speedup", unit: "ratio", kind: "fixture", better: "higher"},
	{name: "simnet.msgs_sent", unit: "count", kind: "counter", better: "lower"},
	{name: "simnet.msgs_delivered", unit: "count", kind: "counter", better: "lower"},
	{name: "simnet.msgs_dropped", unit: "count", kind: "counter", better: "lower"},
	{name: "simnet.bytes_delivered", unit: "B", kind: "counter", better: "lower"},
	{name: "simnet.delivery_share", unit: "ratio", kind: "counter", better: "higher"},
	{name: "simnet.run_busy_s", unit: "s", kind: "host", better: "lower"},
	{name: "bench.harness_self_s", unit: "s", kind: "host", better: "lower"},
	// rpc.
	{name: "rpc.call_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "rpc.allocs_per_call", unit: "count", kind: "fixture", better: "lower"},
	{name: "rpc.timeout_share", unit: "ratio", kind: "counter", better: "lower"},
	// resil.
	{name: "resil.call_overhead_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "resil.allocs_per_call", unit: "count", kind: "fixture", better: "lower"},
	{name: "resil.retry.count", unit: "count", kind: "counter", better: "lower"},
	{name: "resil.retry_share", unit: "ratio", kind: "counter", better: "lower"},
	{name: "resil.hedge.fired", unit: "count", kind: "counter", better: "lower"},
	{name: "resil.hedge.won", unit: "count", kind: "counter", better: "higher"},
	{name: "resil.breaker.open", unit: "count", kind: "counter", better: "lower"},
	{name: "resil.shed.count", unit: "count", kind: "counter", better: "lower"},
	// overload.
	{name: "overload.admit_overhead_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "overload.offered", unit: "count", kind: "counter", better: "lower"},
	{name: "overload.admitted", unit: "count", kind: "counter", better: "higher"},
	{name: "overload.shed", unit: "count", kind: "counter", better: "lower"},
	{name: "overload.codel.dropped", unit: "count", kind: "counter", better: "lower"},
	{name: "overload.admit_share", unit: "ratio", kind: "counter", better: "higher"},
	{name: "overload.queue.wait_p95_s", unit: "s", kind: "counter", better: "lower"},
	// replic.
	{name: "replic.replicas.created", unit: "count", kind: "counter", better: "lower"},
	{name: "replic.replicas.decayed", unit: "count", kind: "counter", better: "lower"},
	{name: "replic.push.bytes", unit: "B", kind: "counter", better: "lower"},
	{name: "replic.advert.sent", unit: "count", kind: "counter", better: "lower"},
	{name: "replic.route.nearest_hit_share", unit: "ratio", kind: "counter", better: "higher"},
	{name: "replic.origin.byte_share", unit: "ratio", kind: "counter", better: "lower"},
	// workload.
	{name: "workload.generate_ns_per_req", unit: "ns", kind: "fixture", better: "lower"},
	{name: "workload.requests", unit: "count", kind: "counter", better: "higher"},
	// dht.
	{name: "dht.bootstrap_s", unit: "s", kind: "host", better: "lower"},
	{name: "dht.self_ns_per_msg", unit: "ns", kind: "host", better: "lower"},
	{name: "dht.lookup.hops_mean", unit: "count", kind: "counter", better: "lower"},
	{name: "dht.store.sent_per_put", unit: "count", kind: "counter", better: "lower"},
	{name: "dht.get_ok_share", unit: "ratio", kind: "counter", better: "higher"},
	{name: "dht.put_ok_share", unit: "ratio", kind: "counter", better: "higher"},
	{name: "dht.table_size_mean", unit: "count", kind: "counter", better: "higher"},
	// gossip.
	{name: "gossip.self_ns_per_msg", unit: "ns", kind: "host", better: "lower"},
	{name: "gossip.push.sent_per_delivery", unit: "count", kind: "counter", better: "lower"},
	{name: "gossip.antientropy.rounds", unit: "count", kind: "counter", better: "lower"},
	{name: "gossip.repair.items", unit: "count", kind: "counter", better: "lower"},
	// chain.
	{name: "chain.checksig_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "chain.tx_id_ns", unit: "ns", kind: "fixture", better: "lower"},
	{name: "chain.addblock_ns_per_tx", unit: "ns", kind: "fixture", better: "lower"},
	{name: "chain.presign_s", unit: "s", kind: "host", better: "lower"},
	{name: "chain.block.accepted", unit: "count", kind: "counter", better: "lower"},
	{name: "chain.reorg.count", unit: "count", kind: "counter", better: "lower"},
	{name: "chain.bytes_per_tx", unit: "B", kind: "counter", better: "lower"},
	// obs and the tracer itself.
	{name: "obs.snapshot_ns", unit: "ns", kind: "host", better: "lower"},
	{name: "trace.spans", unit: "count", kind: "counter", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", kind: "host", better: "lower"},
}

// metricSet maps metric name to value.
type metricSet map[string]float64

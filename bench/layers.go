package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// counterDelta returns how far the named public counter moved over the
// measured phase.
func (r *result) counterDelta(name string) float64 {
	return float64(r.obs1.Counters[name] - r.obs0.Counters[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers computes the per-layer metrics of a traced run: the fixtures, the
// counters every workload shares, and the workload's own. Every name in
// perLayer is present; a layer the workload bypasses reads zero.
func (r *result) layers(fix metricSet) metricSet {
	m := metricSet{}
	for _, d := range perLayer {
		m[d.name] = fix[d.name]
	}
	d := r.net1
	m["simnet.msgs_sent"] = float64(d.Sent - r.net0.Sent)
	m["simnet.msgs_delivered"] = float64(d.Delivered - r.net0.Delivered)
	m["simnet.msgs_dropped"] = float64(d.Dropped - r.net0.Dropped)
	m["simnet.bytes_delivered"] = float64(d.BytesDelivered - r.net0.BytesDelivered)
	m["simnet.delivery_share"] = ratio(m["simnet.msgs_delivered"], m["simnet.msgs_sent"])
	m["simnet.run_busy_s"] = r.busyS
	m["bench.harness_self_s"] = r.wallS - r.busyS

	for _, name := range []string{
		"resil.retry.count", "resil.hedge.fired", "resil.hedge.won", "resil.breaker.open", "resil.shed.count",
		"overload.offered", "overload.admitted", "overload.shed", "overload.codel.dropped",
		"replic.replicas.created", "replic.replicas.decayed", "replic.push.bytes", "replic.advert.sent",
		"gossip.antientropy.rounds", "gossip.repair.items",
		"chain.block.accepted", "chain.reorg.count",
	} {
		m[name] = r.counterDelta(name)
	}
	// Every attempt a resil client issues records the RTO it was issued
	// with, so the histogram's count is the number of attempts.
	attempts := float64(r.obs1.Histograms["resil.rto_s"].Count - r.obs0.Histograms["resil.rto_s"].Count)
	m["resil.retry_share"] = ratio(m["resil.retry.count"], attempts)
	m["overload.admit_share"] = ratio(m["overload.admitted"], m["overload.offered"])
	m["gossip.push.sent_per_delivery"] = ratio(r.counterDelta("gossip.push.sent"), r.counterDelta("gossip.item.delivered"))
	m["dht.lookup.hops_mean"] = ratio(r.counterDelta("dht.lookup.hops"), r.counterDelta("dht.lookup.started"))

	r.sim.layer(m, r, fix)

	m["trace.overhead_share"] = r.traceOverhead()
	return m
}

// nsPerMsg is the measured phase's host time per delivered message.
func (r *result) nsPerMsg() float64 {
	return ratio(r.wallS*1e9, float64(r.net1.Delivered-r.net0.Delivered))
}

// writeTrace writes the traced run's artefacts to dir — the spans, the
// per-name self-time roll-up with the per-layer metrics, and the encoded obs
// snapshot — and returns the file names.
func (r *result) writeTrace(dir string, snapJSON []byte, layers metricSet) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, r.cfg.seed))
	spans, sum, obsPath := stem+".spans.jsonl", stem+".layers.json", stem+".obs.json"
	if err := r.tr.writeSpans(spans); err != nil {
		return nil, err
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Seconds  float64            `json:"seconds"`
		Metrics  map[string]float64 `json:"per_layer"`
		Layers   []layerTime        `json:"spans_by_name"`
	}{r.w.name, r.cfg.seed, r.cfg.seconds, layers, r.tr.rollup()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(sum, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(obsPath, snapJSON, 0o644); err != nil {
		return nil, err
	}
	return []string{spans, sum, obsPath}, nil
}

// writeFixtures runs the layer fixtures in this process and writes their
// metrics, then their spans, under the output directory. It returns the two
// file names; the first is what a traced run's -fixtures takes.
func writeFixtures(cfg runConfig) ([]string, error) {
	tr := newTracer()
	fix := runFixtures(cfg, tr)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("fixtures-seed%d", cfg.seed))
	b, err := json.MarshalIndent(fix, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return []string{stem + ".json", stem + ".spans.jsonl"}, tr.writeSpans(stem + ".spans.jsonl")
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}

// encodeSnapshot merges the registries into a snapshot and encodes it, and
// returns the bytes with the host nanoseconds that took: what obs itself
// costs at the end of a run.
func encodeSnapshot(c *collector, tr *tracer) ([]byte, float64) {
	t0 := time.Now()
	snap := c.snapshot(tr)
	var buf bytes.Buffer
	tr.do("obs.EncodeJSON", 1, func() { _ = snap.EncodeJSON(&buf) }) // a bytes.Buffer cannot fail
	return buf.Bytes(), float64(time.Since(t0))
}

// collector gathers the registries of every network built while it is
// installed — one per network, plus one per shard on the sharded engine —
// so that public counters read the same way on both engines.
type collector struct {
	col     *obs.Collector
	restore func()
}

func installCollector() *collector {
	c := &collector{col: obs.NewCollector()}
	c.restore = obs.SetCollector(c.col)
	return c
}

// snapshot returns the merged public counters, gauges and histograms.
func (c *collector) snapshot(tr *tracer) *obs.Snapshot {
	var snap *obs.Snapshot
	tr.do("obs.Merged", 1, func() { snap = c.col.Merged() })
	return snap
}

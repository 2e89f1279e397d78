package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// HistStat is the exported summary of a Histogram: Count, Min and Max are
// exact, Sum is exact to 1e-9 per sample, and the quantiles are within the
// histogram's 2⁻⁷ relative error. Every field is a function of the bucket
// counts, so none depends on observation or merge order.
type HistStat struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time, export-ready copy of a registry (or of a
// deterministic merge of several). encoding/json emits map keys in sorted
// order, so marshalling a Snapshot is byte-deterministic.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]float64  `json:"gauges,omitempty"`
	Histograms map[string]HistStat `json:"histograms,omitempty"`
}

func histStat(h *Histogram) HistStat {
	if h.Count() == 0 {
		return HistStat{}
	}
	return HistStat{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Quantile(0),
		Max:   h.Quantile(1),
		P50:   h.Quantile(0.5),
		P90:   h.Quantile(0.9),
		P99:   h.Quantile(0.99),
	}
}

// Snapshot runs the publish hooks and exports every metric. The registry
// remains usable (and accumulating) afterwards.
func (r *Registry) Snapshot() *Snapshot {
	r.runPublish()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistStat, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if g.IsSet() {
			s.Gauges[name] = g.Value()
		}
	}
	for name, h := range r.hists {
		s.Histograms[name] = histStat(h)
	}
	return s
}

// MergeRegistries folds several registries into one Snapshot with
// commutative, order-independent semantics:
//
//   - counters sum;
//   - histograms merge bucket by bucket (integer addition);
//   - gauges average across the registries that set them.
//
// Registries are first stable-sorted by label, so the gauge averages'
// float accumulation order — and therefore the exported bytes — do not
// depend on which trial worker attached first.
func MergeRegistries(regs []*Registry) *Snapshot {
	ordered := append([]*Registry(nil), regs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].label < ordered[j].label })

	counters := map[string]int64{}
	gaugeSum := map[string]float64{}
	gaugeN := map[string]int{}
	pooled := map[string]*Histogram{}
	for _, r := range ordered {
		r.runPublish()
		for name, c := range r.counters {
			counters[name] += c.Value()
		}
		for name, g := range r.gauges {
			if g.IsSet() {
				gaugeSum[name] += g.Value()
				gaugeN[name]++
			}
		}
		for name, h := range r.hists {
			dst, ok := pooled[name]
			if !ok {
				dst = &Histogram{}
				pooled[name] = dst
			}
			dst.Merge(h)
		}
	}
	s := &Snapshot{
		Counters:   counters,
		Gauges:     make(map[string]float64, len(gaugeSum)),
		Histograms: make(map[string]HistStat, len(pooled)),
	}
	for name, sum := range gaugeSum {
		s.Gauges[name] = sum / float64(gaugeN[name])
	}
	for name, h := range pooled {
		s.Histograms[name] = histStat(h)
	}
	return s
}

// MarshalJSON is not customized; the declaration below documents the
// determinism contract instead. encoding/json sorts map keys and formats
// floats with the shortest round-trip representation, so identical values
// always produce identical bytes.

// EncodeJSON writes the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) EncodeJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

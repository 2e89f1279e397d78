package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if got := r.Counter("x.count").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.Gauge("x.gauge").Set(2.5)
	if got := r.Gauge("x.gauge").Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("x.hist")
	for _, v := range []float64{3, 1, 2, 4} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := h.Sum(); got != 10 {
		t.Errorf("sum = %v, want 10", got)
	}
}

func TestSpanEnd(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("op.duration", time.Duration(i)*time.Second)
		sp.End(time.Duration(i)*time.Second + 500*time.Millisecond)
	}
	if got := r.Histogram("op.duration").Count(); got != 3 {
		t.Errorf("span observations = %d, want 3", got)
	}
	if got := r.Histogram("op.duration").Sum(); got != 1.5 {
		t.Errorf("span seconds = %v, want 1.5", got)
	}
	var zero Span
	zero.End(time.Second) // must not panic
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(7)
		r.Counter("a.count").Add(3)
		r.Gauge("g").Set(1.25)
		r.Histogram("h").Observe(0.5)
		r.Histogram("h").Observe(1.5)
		return r
	}
	var a, b bytes.Buffer
	if err := MergeRegistries([]*Registry{build()}).EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := MergeRegistries([]*Registry{build()}).EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshot JSON not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), `"a.count": 3`) {
		t.Errorf("snapshot JSON missing counter: %s", a.String())
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	mk := func(label string, gauge float64, samples ...float64) *Registry {
		r := NewRegistry()
		r.SetLabel(label)
		r.Counter("c").Add(int64(len(samples)))
		r.Gauge("g").Set(gauge)
		for _, v := range samples {
			r.Histogram("h").Observe(v)
		}
		return r
	}
	fwd := []*Registry{mk("seed:1", 0.1, 1, 2), mk("seed:2", 0.3, 3), mk("seed:3", 0.2, 4, 5)}
	rev := []*Registry{mk("seed:3", 0.2, 4, 5), mk("seed:2", 0.3, 3), mk("seed:1", 0.1, 1, 2)}
	var a, b bytes.Buffer
	if err := MergeRegistries(fwd).EncodeJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := MergeRegistries(rev).EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merge depends on registry order:\n%s\nvs\n%s", a.String(), b.String())
	}
	s := MergeRegistries(fwd)
	if s.Counters["c"] != 5 {
		t.Errorf("merged counter = %d, want 5", s.Counters["c"])
	}
	if got := s.Histograms["h"].Count; got != 5 {
		t.Errorf("merged histogram count = %d, want 5", got)
	}
}

func TestOnPublishHook(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.OnPublish(func(reg *Registry) {
		calls++
		reg.Counter("hooked").Set(42)
	})
	s := MergeRegistries([]*Registry{r})
	if s.Counters["hooked"] != 42 {
		t.Errorf("publish hook did not run: %v", s.Counters)
	}
	_ = MergeRegistries([]*Registry{r})
	if calls != 2 {
		t.Errorf("hook calls = %d, want 2 (once per snapshot)", calls)
	}
}

func TestCollectorAttach(t *testing.T) {
	col := NewCollector()
	restore := SetCollector(col)
	r := NewRegistry()
	AttachCurrent(r)
	restore()
	AttachCurrent(NewRegistry()) // no collector installed: dropped
	if len(col.regs) != 1 {
		t.Errorf("collector holds %d registries, want 1", len(col.regs))
	}
}

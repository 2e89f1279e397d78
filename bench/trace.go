package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call (or one loop of identical calls) the harness made
// into a layer. Spans are recorded from the benchmark's own files, around
// the calls into each layer; spans inside the program are a later issue.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Start and End are host nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Op is the op id the span belongs to, or -1 when it covers many.
	Op int `json:"op"`
	// Calls is how many calls into the layer the span covers: 1, or the
	// trip count of a construction loop recorded as a single span (one span
	// per AddNode at 100k nodes would outweigh what it measures).
	Calls int `json:"calls"`
	// Counts holds the public counters read at the span's boundaries, as
	// deltas over the span.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the benchmark ends.
// A nil tracer records nothing and costs a nil check, which is how the
// untraced run — the one end-to-end metrics come from — stays free of it.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, calls int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: -1, Calls: calls})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// do runs f inside a span covering calls calls into a layer.
func (t *tracer) do(name string, calls int, f func()) {
	id := t.begin(name, calls)
	f()
	t.end(id)
}

// layerTime is the per-name roll-up written beside the spans: total time,
// and self time — the span's duration minus the part its child spans cover.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) rollup() []layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Spans++
		lt.Calls += s.Calls
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-child[i]) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes one JSON object per line to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

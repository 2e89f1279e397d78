package experiments

import (
	"time"

	"repro/internal/simnet"
)

// slaOutcome is one operation's fate — the conformance suite asserts
// availability over time windows from these.
type slaOutcome struct {
	at  time.Duration // schedule time, relative to measurement start
	lat time.Duration // launch to completion
	ok  bool          // completed successfully within the SLA
}

// slaMeter scores operations against a latency budget: an operation is
// available iff it completes successfully within sla of its launch, and an
// operation whose callback never arrives counts against availability. It
// is the one meter behind X16's fixed-cadence probes, the X18–X20 request
// schedules and X20's control-plane ping.
//
// Completions are logged per launching node and only folded together by
// score, after the run: on the sharded engine a completion callback runs
// on its node's shard worker, so a tally shared between nodes would be
// written from several goroutines at once.
type slaMeter struct {
	sla      time.Duration
	launched int
	slots    [][]slaOutcome
}

// newSLAMeter returns a meter with one completion log per launching node.
func newSLAMeter(sla time.Duration, slots int) *slaMeter {
	return &slaMeter{sla: sla, slots: make([][]slaOutcome, slots)}
}

// launch registers one operation issued by node `slot`; call it as the
// operation fires and hand the returned func the response. at is the
// operation's schedule offset, launched the absolute launch time, and
// clock the launching node's clock: the network's global clock only
// advances at window barriers on the sharded engine, while a node's Now is
// event-exact on both engines, so measured latency is identical at every
// layout.
func (m *slaMeter) launch(slot int, at, launched time.Duration, clock func() time.Duration) func(okResp bool) {
	m.launched++
	return func(okResp bool) {
		l := clock() - launched
		m.slots[slot] = append(m.slots[slot], slaOutcome{at: at, lat: l, ok: okResp && l <= m.sla})
	}
}

// every schedules op at a fixed cadence through [from, to) (offsets
// relative to start), all launched by node 0 of the meter on clock.
func (m *slaMeter) every(nw *simnet.Network, start, from, to, interval time.Duration, clock func() time.Duration, op func(done func(bool))) {
	for t := from; t < to; t += interval {
		nw.Schedule(start+t, func() { op(m.launch(0, t, start+t, clock)) })
	}
}

// slaScore is a finished meter's reading.
type slaScore struct {
	ok       int
	avail    float64 // ok over launched, in [0, 1]
	p95      float64 // seconds, over completed operations
	outcomes []slaOutcome
}

// score folds the per-node logs in node order. Call it after the run.
func (m *slaMeter) score() slaScore {
	var s slaScore
	var lat samples
	for _, slot := range m.slots {
		for _, o := range slot {
			lat.add(o.lat.Seconds())
			if o.ok {
				s.ok++
			}
		}
		s.outcomes = append(s.outcomes, slot...)
	}
	if m.launched > 0 {
		s.avail = float64(s.ok) / float64(m.launched)
	}
	s.p95 = lat.quantile(0.95)
	return s
}

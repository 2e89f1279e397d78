// Package overload is the server-side mirror of internal/resil: where
// resil makes clients survive flaky servers (adaptive retries, hedging,
// circuit breakers), overload makes servers survive their clients. X18
// showed why both halves are needed — the feudal origin collapsed to ~50%
// availability not because it crashed but because its unbounded uplink
// FIFO outlived the flash spike, and PR 9's tuning lesson ("a saturated
// origin loses its own control plane") showed that the collapse takes the
// control plane down with the data plane.
//
// A Server bolts three disciplines onto a simnet RPC node:
//
//   - A bounded service queue with a CoDel-style discipline: requests that
//     already waited longer than Target when their turn comes are shed
//     from the *front* of the queue (serving them stale helps nobody — the
//     caller's timeout has likely fired), which keeps queue sojourn near
//     the target instead of letting the backlog outlive the burst.
//   - Two priority lanes: methods registered via Control ride the uplink's
//     strict-priority control lane (Node.SetPriorityUplink), so directory
//     ops, adverts and pings serialize ahead of queued bulk replies and a
//     saturated server keeps answering its control plane.
//   - Adaptive admission: an AIMD concurrency limit driven by observed
//     queue wait against an SLO. Completions that waited within the SLO
//     additively raise the limit; waits beyond it multiplicatively cut it
//     (at most once per SLO window, so one burst is one cut). Requests
//     that cannot meet the SLO are rejected *early* with a deterministic
//     Shed{RetryAfter} hint instead of joining a doomed queue.
//
// Clients recognize sheds through resil's Classify hook (see Classify):
// a shed is a deliberate, explicitly-retryable answer from a live peer —
// it never trips the circuit breaker, and the RetryAfter hint paces the
// retry.
//
// Determinism: the package draws no randomness and reads no wall clock.
// Every decision (admit, queue, shed, hint level, AIMD step) is a pure
// function of the request arrival order and virtual time, so for a fixed
// seed the decision sequence is bit-for-bit reproducible — including on
// the sharded engine, where all state is owned by the server's node.
//
// Metrics (registered only when a Server is enabled, so historical
// experiment snapshots are untouched):
//
//	overload.offered          counter  requests reaching admission
//	overload.admitted         counter  requests served (direct or dequeued)
//	overload.queued           counter  requests that waited in the queue
//	overload.shed             counter  requests rejected with a hint
//	overload.codel.dropped    counter  sheds from the front at dequeue time
//	overload.queue.wait_s     histogram queue wait of served requests
//	overload.limit            gauge    current AIMD concurrency limit
package overload

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config tunes one server's overload control. The zero value (Enabled
// false) is a strict passthrough: Protect and Control degrade to plain
// RPC registration, the priority uplink stays off (so stamped lanes are
// inert), no metrics are registered, and the node's behaviour is
// byte-identical to a server without the package — the guarantee the
// pre-X20 experiment goldens rely on.
type Config struct {
	// Enabled switches overload control on. The other fields are ignored
	// when false and must be positive when true (New panics otherwise).
	Enabled bool
	// QueueLen bounds the service queue; a request arriving to a full
	// queue is shed immediately.
	QueueLen int
	// Target is the CoDel-style sojourn target: a request whose queue wait
	// already exceeds Target when a service slot frees is shed from the
	// front instead of served stale.
	Target time.Duration
	// SLO is the queue-wait objective the AIMD limit tracks: dequeue waits
	// within the SLO raise the limit additively, waits beyond it cut the
	// limit multiplicatively. Admission also sheds early when the estimated
	// wait (queue depth × smoothed service time) exceeds the SLO.
	SLO time.Duration
	// MinLimit and MaxLimit bound the AIMD concurrency limit.
	MinLimit, MaxLimit int
	// RetryAfterBase is the smallest shed hint. Hints grow with queue
	// pressure in powers of two: RetryAfterBase << level, level in [0, 5].
	RetryAfterBase time.Duration
}

// Shed is the response payload of a rejected request: the server is alive
// but declines the work, and RetryAfter is its deterministic pacing hint.
// Protocol clients either treat a Shed like a miss (and fail over) or
// route it through resil's Classify hook for hinted retry.
type Shed struct {
	RetryAfter time.Duration
}

// shedRespSize is the simulated wire size of a Shed reply — a status byte
// and a hint, far below any data reply. Small sheds are the point: the
// server spends near-zero uplink telling clients to go away.
const shedRespSize = 16

// ErrOverloaded is the typed error a shed response classifies to. It
// implements the resil retryable-hint contract (RetryAfterHint), so the
// resilience layer backs off for the hinted interval — without tripping
// the circuit breaker — instead of treating the shed as a peer failure.
type ErrOverloaded struct {
	RetryAfter time.Duration
}

// Error describes the shed and its pacing hint.
//
//reach:the error interface; resil classifies sheds without printing them
func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("server overloaded; retry after %v", e.RetryAfter)
}

// RetryAfterHint returns the server's pacing hint. resil discovers this
// method structurally, so neither package imports the other.
func (e *ErrOverloaded) RetryAfterHint() time.Duration { return e.RetryAfter }

// Classify is a ready-made resil.Config.Classify hook: it maps a Shed
// response to *ErrOverloaded and leaves every other payload untouched.
// The error is shared by every shed with the same hint (servers shed from
// a six-step ladder), so it must not be modified.
func Classify(resp any) error {
	s, ok := resp.(Shed)
	if !ok {
		return nil
	}
	if e, ok := overloaded.Load(s.RetryAfter); ok {
		return e.(*ErrOverloaded)
	}
	e, _ := overloaded.LoadOrStore(s.RetryAfter, &ErrOverloaded{RetryAfter: s.RetryAfter})
	return e.(*ErrOverloaded)
}

// overloaded maps a shed hint to the one *ErrOverloaded Classify returns
// for it.
var overloaded sync.Map

// metricsBundle is the package's network-scoped metric set, resolved once
// per registry via Memo (see DESIGN.md metric naming conventions).
type metricsBundle struct {
	offered  *obs.Counter
	admitted *obs.Counter
	queued   *obs.Counter
	shed     *obs.Counter
	codel    *obs.Counter
	wait     *obs.Histogram
	limit    *obs.Gauge
}

func metricsFor(r *obs.Registry) *metricsBundle {
	return r.Memo("overload", func() any {
		return &metricsBundle{
			offered:  r.Counter("overload.offered"),
			admitted: r.Counter("overload.admitted"),
			queued:   r.Counter("overload.queued"),
			shed:     r.Counter("overload.shed"),
			codel:    r.Counter("overload.codel.dropped"),
			wait:     r.Histogram("overload.queue.wait_s"),
			limit:    r.Gauge("overload.limit"),
		}
	}).(*metricsBundle)
}

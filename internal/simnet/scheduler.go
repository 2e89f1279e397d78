package simnet

import (
	"sync"
	"time"
)

// This file is the *engine* half of simnet's engine/substrate split: a
// discrete-event scheduler that knows nothing about links or messages, and
// of nodes only that one may own a sequence counter. The substrate
// (Network, Node) layers network semantics on top. It is the package's only
// event queue: a Network embeds one and every shard owns one.
//
// Design points:
//
//   - Events order by the key (at, origin, oseq), so one heap serves both
//     "schedule order" (every origin 0) and the sharded mode's
//     layout-independent per-node order.
//   - Events live in an indexed binary heap: each event records its heap
//     position, so cancellation is O(log n) instead of
//     requiring lazy tombstones that bloat the queue.
//   - Events are recycled through a sync.Pool and carry a handler+argument
//     pair (EventFunc + arg) instead of a captured closure, so the message
//     hot path allocates nothing in steady state.
//   - Timer handles are generation-checked: a Timer that already fired or
//     was cancelled becomes an inert no-op even after its event struct has
//     been recycled for an unrelated schedule.

// EventFunc is a closure-free event callback: the scheduler invokes it with
// the argument it was registered with. Hot paths should prefer EventFunc
// over closures to avoid a capture allocation per event.
type EventFunc func(arg any)

// event is one scheduled occurrence. Events are pooled; gen disambiguates
// successive uses of the same struct so stale Timer handles stay inert.
//
// Every queue orders by the key (at, origin, oseq): the virtual time, the
// scheduling entity (0 for the queue's own counter, node id + 1 for a node
// of a sharded network), and that entity's private monotone sequence
// number. A single-heap network keys every event (at, 0, seq), which is
// plain schedule order; a sharded network keys node events by the node, a
// pair independent of the shard layout and worker count, which is what
// makes sharded execution reproducible across NetworkConfig{Shards,
// Workers} settings (see shard.go).
type event struct {
	at     time.Duration
	origin uint64
	oseq   uint64
	gen    uint64  // bumped every time the event fires or is cancelled
	pos    int     // index in the heap, -1 when not queued
	q      *engine // owning queue
	fn     func()  // closure path (convenience API)
	h      EventFunc
	arg    any
}

// free recycles a dequeued event into its queue's pool. The generation bump
// invalidates every outstanding Timer handle pointing at it.
func (e *event) free() {
	e.gen++
	e.fn, e.h, e.arg = nil, nil, nil
	e.q.pool.Put(e)
}

// engine is the concrete scheduler: virtual clock plus indexed event heap.
// The zero value is a usable stand-alone queue.
type engine struct {
	now  time.Duration
	seq  uint64 // origin 0's sequence counter
	heap []*event
	// pool recycles this queue's events. An event always returns to the
	// queue that owned it, so the gen and pos a stale Timer handle inspects
	// are only ever written by that queue's own goroutine; a pool shared
	// between queues would let another shard's worker, or another trial's
	// network, bump gen under the reader.
	pool sync.Pool
}

// Timer is a handle on a scheduled event. The zero Timer is inert. Timers
// are values; copying one copies the handle, not the event.
type Timer struct {
	e   *event
	gen uint64
}

// Active reports whether the timer is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.pos >= 0
}

// Now returns the current virtual time.
func (en *engine) Now() time.Duration { return en.now }

// draw returns origin 0's next sequence number, counted on the queue.
func (en *engine) draw() uint64 {
	en.seq++
	return en.seq
}

// alloc returns a pooled event owned by queue en. Safe to call from another
// queue's goroutine (a sender staging a message).
func (en *engine) alloc() *event {
	if e, ok := en.pool.Get().(*event); ok {
		return e
	}
	return &event{q: en}
}

// schedule queues an event under the key (at, origin, oseq), with at
// clamped to Now. Callers must be the queue's own execution context or the
// single-threaded harness/control context.
func (en *engine) schedule(at time.Duration, origin, oseq uint64, fn func(), h EventFunc, arg any) *event {
	if at < en.now {
		at = en.now
	}
	e := en.alloc()
	e.at, e.origin, e.oseq = at, origin, oseq
	e.fn, e.h, e.arg = fn, h, arg
	en.push(e)
	return e
}

// Schedule runs fn at absolute virtual time at (clamped to Now).
func (en *engine) Schedule(at time.Duration, fn func()) { en.schedule(at, 0, en.draw(), fn, nil, nil) }

// After runs fn after d of virtual time.
func (en *engine) After(d time.Duration, fn func()) { en.Schedule(en.now+d, fn) }

// ScheduleCall is the closure-free variant of Schedule; it returns a
// Timer that can cancel the event before it fires.
func (en *engine) ScheduleCall(at time.Duration, h EventFunc, arg any) Timer {
	e := en.schedule(at, 0, en.draw(), nil, h, arg)
	return Timer{e: e, gen: e.gen}
}

// AfterCall is the closure-free variant of After.
func (en *engine) AfterCall(d time.Duration, h EventFunc, arg any) Timer {
	return en.ScheduleCall(en.now+d, h, arg)
}

// Cancel removes the event from the queue so it never fires. It reports
// whether the timer was still pending; cancelling an already-fired,
// already-cancelled, or zero Timer is a safe no-op.
func (t Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	t.e.q.remove(t.e)
	t.e.free()
	return true
}

// step pops and runs the earliest event, advancing the clock. It reports
// whether an event ran.
func (en *engine) step() bool {
	if len(en.heap) == 0 {
		return false
	}
	e := en.pop()
	en.now = e.at
	fn, h, arg := e.fn, e.h, e.arg
	e.free() // recycle before invoking: the handler may schedule again
	if h != nil {
		h(arg)
	} else if fn != nil {
		fn()
	}
	return true
}

// peekTime returns the time of the earliest pending event.
func (en *engine) peekTime() (time.Duration, bool) {
	if len(en.heap) == 0 {
		return 0, false
	}
	return en.heap[0].at, true
}

// --- indexed binary heap -------------------------------------------------
//
// A hand-rolled heap (rather than container/heap) keeps events' positions
// up to date without interface boxing on every operation.

func (en *engine) less(i, j int) bool {
	a, b := en.heap[i], en.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.oseq < b.oseq
}

func (en *engine) swap(i, j int) {
	h := en.heap
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

func (en *engine) push(e *event) {
	e.pos = len(en.heap)
	en.heap = append(en.heap, e)
	en.up(e.pos)
}

func (en *engine) pop() *event {
	e := en.heap[0]
	last := len(en.heap) - 1
	en.swap(0, last)
	en.heap[last] = nil
	en.heap = en.heap[:last]
	if last > 0 {
		en.down(0)
	}
	e.pos = -1
	return e
}

// remove unlinks an arbitrary queued event (timer cancellation).
func (en *engine) remove(e *event) {
	i := e.pos
	last := len(en.heap) - 1
	if i != last {
		en.swap(i, last)
	}
	en.heap[last] = nil
	en.heap = en.heap[:last]
	if i != last {
		if !en.up(i) {
			en.down(i)
		}
	}
	e.pos = -1
}

func (en *engine) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !en.less(i, parent) {
			break
		}
		en.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (en *engine) down(i int) {
	n := len(en.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && en.less(right, left) {
			least = right
		}
		if !en.less(least, i) {
			return
		}
		en.swap(i, least)
		i = least
	}
}

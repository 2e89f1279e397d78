package overload

import (
	"time"

	"repro/internal/simnet"
)

// qItem is one parked request: the protected method's handler, the
// deferred-reply token, the request payload, and the enqueue time the
// CoDel discipline judges sojourn by. Items are plain values living in the
// ring's preallocated buffer, so parking and unparking a request allocates
// nothing.
type qItem struct {
	h   simnet.RPCHandler
	tok simnet.ReplyToken
	req any
	enq time.Duration
}

// ring is a fixed-capacity FIFO over a preallocated buffer. Push appends
// at the tail, pop removes at the head; survivors therefore leave in
// arrival order — the global FIFO that makes per-sender FIFO order of
// survivors a structural invariant rather than a scheduling accident.
type ring struct {
	buf  []qItem
	head int
	n    int
}

func newRing(cap int) ring { return ring{buf: make([]qItem, cap)} }

func (q *ring) empty() bool { return q.n == 0 }
func (q *ring) full() bool  { return q.n == len(q.buf) }
func (q *ring) depth() int  { return q.n }

// push appends an item; reports false when the ring is full.
func (q *ring) push(it qItem) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = it
	q.n++
	return true
}

// pop removes and returns the head item; ok is false when empty. The
// vacated slot is zeroed so parked payloads do not outlive their stay.
func (q *ring) pop() (qItem, bool) {
	if q.n == 0 {
		return qItem{}, false
	}
	it := q.buf[q.head]
	q.buf[q.head] = qItem{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return it, true
}

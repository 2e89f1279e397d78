package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// refEvent mirrors one scheduled event for the reference implementation:
// a plain sorted list, the simplest possible correct scheduler.
type refEvent struct {
	at     time.Duration
	origin uint64
	seq    int
	id     int
}

// refLess is the reference ordering: (time, origin, schedule order). With
// every origin 0 it degenerates to (time, schedule order).
func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// testOrigins is how many distinct origins the property tests draw: 0 (the
// only origin a single-heap network uses) and three nodes (origin = id+1,
// as on a shard).
const testOrigins = 4

// originOf picks event i's origin from a quick-generated byte slice;
// events beyond the slice fall back to origin 0.
func originOf(origins []uint8, i int) uint64 {
	if i >= len(origins) {
		return 0
	}
	return uint64(origins[i]) % testOrigins
}

// timerAs schedules fn after d under origin's key, the way Network.After
// (origin 0) and a sharded Node.After (origin id+1) do. The sequence number
// comes from the queue's one counter, so it grows within every origin, as
// a node's own counter does.
func timerAs(en *engine, origin uint64, d time.Duration, fn func()) Timer {
	e := en.schedule(en.now+d, origin, en.draw(), runFunc, fn)
	return Timer{e: e, gen: e.gen}
}

// TestSchedulerMatchesReferenceOrder is the property test for the indexed
// heap: any batch of events, scheduled in any order at any (possibly equal)
// times by any mix of origins, must run in exactly the order a sort by
// (time, origin, schedule order) produces.
func TestSchedulerMatchesReferenceOrder(t *testing.T) {
	prop := func(delays []uint16, origins []uint8) bool {
		en := newEngine()
		var got []int
		ref := make([]refEvent, len(delays))
		for i, d := range delays {
			at := time.Duration(d) * time.Millisecond
			i := i
			timerAs(&en, originOf(origins, i), at, func() { got = append(got, i) })
			ref[i] = refEvent{at: at, origin: originOf(origins, i), seq: i, id: i}
		}
		for en.step() {
		}
		sort.Slice(ref, func(a, b int) bool { return refLess(ref[a], ref[b]) })
		if len(got) != len(ref) {
			return false
		}
		for i, r := range ref {
			if got[i] != r.id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerCancelProperty: from a random batch of timers, cancel a
// random subset before running. Cancelled timers must never fire and the
// survivors must all fire exactly once, still in (time, seq) order.
func TestSchedulerCancelProperty(t *testing.T) {
	prop := func(delays []uint16, cancelMask []bool, origins []uint8) bool {
		en := newEngine()
		fired := make([]int, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = timerAs(&en, originOf(origins, i), time.Duration(d)*time.Millisecond, func() { fired[i]++ })
		}
		cancelled := make([]bool, len(delays))
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				if !timers[i].Cancel() {
					return false // a pending timer must report cancellation
				}
				cancelled[i] = true
				if timers[i].Cancel() {
					return false // double cancel must be a no-op
				}
			}
		}
		for en.step() {
		}
		for i := range fired {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTimerStaleAfterFire: once a timer fires, its handle is inert even
// though the pooled event struct is recycled for later schedules.
func TestTimerStaleAfterFire(t *testing.T) {
	en := newEngine()
	ran := 0
	tm := en.AfterCall(time.Millisecond, func(any) { ran++ }, nil)
	for en.step() {
	}
	if ran != 1 {
		t.Fatalf("timer ran %d times", ran)
	}
	if tm.Active() {
		t.Error("fired timer still active")
	}
	if tm.Cancel() {
		t.Error("cancelling a fired timer should report false")
	}
	// Recycle the event struct for an unrelated schedule; the stale handle
	// must not be able to cancel it.
	other := 0
	en.AfterCall(time.Millisecond, func(any) { other++ }, nil)
	tm.Cancel()
	for en.step() {
	}
	if other != 1 {
		t.Error("stale handle cancelled an unrelated recycled event")
	}
}

// TestTimerZeroValueInert: the zero Timer is safe to cancel and query.
func TestTimerZeroValueInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Error("zero timer active")
	}
	if tm.Cancel() {
		t.Error("zero timer cancelled")
	}
}

// TestSchedulerStressRandomOps drives the heap through a long random mix of
// schedule/cancel/step operations under mixed origins, cross-checking
// every firing against the reference list implementation.
func TestSchedulerStressRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	en := newEngine()
	type live struct {
		tm Timer
		id int
	}
	var pendingRef []refEvent // reference queue, kept sorted lazily
	var handles []live
	var got, want []int
	nextID := 0
	fire := func(id int) func() { return func() { got = append(got, id) } }
	popRef := func() {
		sort.Slice(pendingRef, func(a, b int) bool { return refLess(pendingRef[a], pendingRef[b]) })
		want = append(want, pendingRef[0].id)
		pendingRef = pendingRef[1:]
	}
	refSeq := 0
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // schedule
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			id := nextID
			nextID++
			origin := uint64(rng.Intn(testOrigins))
			tm := timerAs(&en, origin, d, fire(id))
			handles = append(handles, live{tm: tm, id: id})
			pendingRef = append(pendingRef, refEvent{at: en.now + d, origin: origin, seq: refSeq, id: id})
			refSeq++
		case r < 7: // cancel a random handle (may already be fired/cancelled)
			if len(handles) == 0 {
				continue
			}
			h := handles[rng.Intn(len(handles))]
			if h.tm.Cancel() {
				for i, e := range pendingRef {
					if e.id == h.id {
						pendingRef = append(pendingRef[:i], pendingRef[i+1:]...)
						break
					}
				}
			}
		default: // step
			if len(en.heap) > 0 {
				popRef()
				en.step()
			}
		}
	}
	for len(en.heap) > 0 {
		popRef()
		en.step()
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing %d: got event %d, reference says %d", i, got[i], want[i])
		}
	}
}

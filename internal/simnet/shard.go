package simnet

import (
	"fmt"
	"sync"
	"time"
)

// This file is what sharded execution adds to the one event queue
// (scheduler.go) and the one message path (Network.Send, deliverEvent): an
// opt-in mode (NetworkConfig{Shards, Workers}) that partitions nodes across
// per-shard queues and runs independent shards on parallel workers inside a
// conservative virtual-time window, while keeping the merged execution
// bit-for-bit reproducible across every (Shards, Workers) setting. The
// single-heap mode remains the default.
//
// # Why the merged execution is deterministic
//
// Three disciplines combine, each independent of the shard layout:
//
//  1. Ordering keys instead of insertion order. Every queue orders by
//     (at, origin, oseq); a sharded network keys each event by the node
//     that scheduled it (node id + 1; 0 is reserved for barrier-synced
//     control events) and that node's private monotone counter. A shard
//     always pops its heap in key order, so the sequence of events *each
//     node* observes is a pure function of the seed — the key never encodes
//     which shard or worker produced it. (The Trials runner proves this
//     merge discipline at trial granularity; the key is what lets us apply
//     it within one.)
//
//  2. A conservative synchronization window. Any message between two nodes
//     takes at least lookahead = 2·min(profile latency) of virtual time
//     (both endpoints' latencies are summed; uplink serialization, region
//     matrices, jitter, and reorder hold-back only add). A window runs
//     every event with at < W = min(heap) + lookahead, so nothing executed
//     during the window can schedule work that another shard should have
//     run *within* the same window: all arrivals land at ≥ W. Cross-shard
//     sends are staged in per-(src,dst) outboxes and merged into the
//     destination heap at the window barrier. A source notes each outbox it
//     makes non-empty, the coordinator turns those notes into one list of
//     sources per destination, and a destination drains only the outboxes
//     on its list — so a window costs what it staged, not Shards². Because
//     heaps order by key, merge timing and outbox traversal order are
//     immaterial: whatever order the inbox lists come out in, the same
//     events reach the same heap before the next window pops it.
//
//  3. No shared draws or shared mutable state between barriers. Substrate
//     randomness (loss, jitter, fault draws) comes from the *sender's*
//     dedicated substrate stream, not the network stream, so draw order
//     per node equals that node's deterministic event order. Traffic
//     counters and latency histograms are per-shard (ledger) and merge by
//     commutative sums. Global state (partitions, the fault model, link
//     profiles, clock skew) may only change through control events —
//     Network.Schedule/After and fault.Plan land there — which execute
//     with every shard synchronized at the same virtual instant.
//
// # Where the two modes differ
//
// Everything else — the queue, the substrate model in Send, delivery,
// accounting, timers — is the same code in both modes. The complete list of
// places that ask which mode they are in, next to the semantic difference
// each one causes (all consistent across every sharded configuration):
//
//	construction (NewWithConfig,    one shard hosting every node and the
//	AddNodeWithProfile)             shared substrate stream, vs N shards and
//	                                a substrate stream per node
//	key draw (Node.key)             (at, 0, global seq) vs (at, id+1, oseq):
//	                                a timer and a reply due at the same
//	                                instant run in schedule order on a single
//	                                heap, in origin order on shards
//	Send, destination liveness      a message to a crashed destination drops
//	                                at send time vs at delivery time (a
//	                                sender cannot read liveness across shards
//	                                without a race)
//	Send, downlink                  receiver downlink serialization queues
//	                                messages in global send order vs in
//	                                arrival order at the destination
//	                                (shardArriveEvent, the only hop one mode
//	                                has and the other lacks)
//	run loop (Run, RunAll)          pop until done vs runSharded's windows

// shard is one single-threaded execution context: an event queue with its
// clock, and the accounting home of the nodes whose events run on it. A
// sharded network assigns node id to shard id mod NumShards and runs all of
// a node's events — its timers and the messages addressed to it — there;
// the Network's own embedded shard runs the control events. A single-heap
// network is that embedded shard alone, hosting every node.
type shard struct {
	engine
	ledger
	// nw is the network the shard belongs to; stage reads its window end.
	nw  *Network
	idx int
	// outbox[d] holds events this shard scheduled onto shard d during the
	// current window; the barrier merge (drainInboxes) moves them into d's
	// heap. Only shard d touches outbox[d] during the merge phase, so the
	// two phases never race.
	outbox [][]*event
	// dirty lists the destinations whose outbox this shard made non-empty
	// during the current window. inbox lists the sources holding staged
	// events for this shard; routeStaged fills it from the dirty lists
	// between the two phases, and drainInboxes empties it.
	dirty []*shard
	inbox []*shard
	// calls numbers the RPC calls this shard's nodes issue and recycles
	// their records (rpc.go). Only this shard's worker touches it.
	calls callPool
}

// stage holds a cross-shard event built inside a parallel window until the
// barrier merge. It must respect the lookahead, or parallel execution would
// have needed it mid-window.
func (sh *shard) stage(dst *shard, e *event) {
	if e.at < sh.nw.winEnd {
		panic(fmt.Sprintf("simnet: lookahead violation: cross-shard event at %v inside window ending %v", e.at, sh.nw.winEnd))
	}
	box := sh.outbox[dst.idx]
	if len(box) == 0 {
		sh.dirty = append(sh.dirty, dst)
	}
	sh.outbox[dst.idx] = append(box, e)
}

// runWindow executes every queued event with at < w in key order,
// advancing the shard clock. New same-shard events landing inside the
// window (zero-delay timers and the like) are picked up by the same loop.
func (sh *shard) runWindow(w time.Duration) {
	for len(sh.heap) > 0 && sh.heap[0].at < w {
		sh.step()
	}
}

// drainInboxes is the window-barrier merge point: it moves every event the
// shards on its inbox list staged for this shard into the local heap.
// Insertion order is immaterial — the heap orders by (at, origin, oseq) —
// so the list's order is a convenience, not a correctness requirement.
func (sh *shard) drainInboxes() {
	for _, src := range sh.inbox {
		box := src.outbox[sh.idx]
		for i, e := range box {
			sh.push(e)
			box[i] = nil
		}
		src.outbox[sh.idx] = box[:0]
	}
	sh.inbox = sh.inbox[:0]
}

// routeStaged transposes the sources' dirty lists into the destinations'
// inbox lists and reports whether the window staged anything at all. The
// coordinator calls it between the window phase and the merge phase, when
// no worker is running, so it needs no synchronization.
func (nw *Network) routeStaged() bool {
	staged := false
	for _, src := range nw.shards {
		for _, dst := range src.dirty {
			dst.inbox = append(dst.inbox, src)
			staged = true
		}
		src.dirty = src.dirty[:0]
	}
	return staged
}

// shardArriveEvent is the one hop only the sharded message path has: it
// runs on the destination shard when a message reaches the receiving
// host's link. Downlink serialization happens here, in arrival order on the
// destination's own clock; if the downlink delays the message, the final
// delivery is rescheduled under the receiver's key.
func shardArriveEvent(arg any) {
	f := arg.(*flight)
	dst := f.nw.nodes[f.msg.To]
	now := dst.sh.now
	if at := dst.downlink(now, f.msg.Size); at > now {
		dst.schedule(at, nil, deliverEvent, f)
		return
	}
	deliverEvent(f)
}

// --- conservative window runner ------------------------------------------

// Job modes for the worker pool. The mode is written by the coordinator
// before dispatch and read by workers after the channel receive, so the
// channel's happens-before edge publishes it.
const (
	jobWindow = iota
	jobMerge
)

// runAllHorizon is the "no time bound" sentinel for RunAll in sharded
// mode: ~73 years of virtual nanoseconds, far beyond any workload.
const runAllHorizon = time.Duration(1) << 61

// runSharded is the sharded Run/RunAll loop: alternate barrier-synced
// control events with parallel conservative windows until the queues empty
// or virtual time passes until.
func (nw *Network) runSharded(until time.Duration, runAll bool) time.Duration {
	if nw.running {
		panic("simnet: re-entrant Run")
	}
	la := nw.shardLookahead()
	nw.running = true
	defer func() { nw.running = false }()
	stop := nw.startWorkers()
	defer stop()

	for {
		shardMin, haveNode := nw.earliestShardEvent()
		ctrlT, haveCtrl := nw.peekTime()
		if !haveNode && !haveCtrl {
			break
		}
		next := shardMin
		if !haveNode || (haveCtrl && ctrlT < next) {
			next = ctrlT
		}
		if !runAll && next > until {
			break
		}
		if haveCtrl && (!haveNode || ctrlT <= shardMin) {
			// Control events (harness Schedule/After, fault plans) execute
			// with every shard synchronized at ctrlT and run before any
			// node event at the same instant — the global-state mutation
			// point the window protocol relies on.
			nw.syncClocks(ctrlT)
			for {
				t, ok := nw.peekTime()
				if !ok || t > ctrlT {
					break
				}
				nw.step()
			}
			continue
		}
		w := shardMin + la
		if haveCtrl && ctrlT < w {
			w = ctrlT
		}
		if !runAll && w > until {
			w = until + 1 // the window is half-open; events at exactly `until` still run
		}
		nw.winEnd = w
		nw.inWindow = true
		nw.jobMode = jobWindow
		nw.dispatch()
		if nw.routeStaged() {
			nw.jobMode = jobMerge
			nw.dispatch()
		}
		nw.inWindow = false
	}
	if runAll {
		// Settle on the furthest shard clock (not the horizon sentinel), so
		// RunAll leaves Now at the last executed event, like the legacy path.
		var last time.Duration
		for _, sh := range nw.shards {
			if sh.now > last {
				last = sh.now
			}
		}
		nw.syncClocks(last)
	} else {
		nw.syncClocks(until)
	}
	return nw.now
}

// shardLookahead returns the conservative window size: twice the minimum
// link-profile latency ever attached to a node. Every message spends at
// least the sum of both endpoints' latencies in flight, and everything
// else in the delay model (uplink queueing, jitter, region matrices,
// reorder hold-back, downlink queueing) only adds — so no event executed
// inside a window can require delivery within that same window.
func (nw *Network) shardLookahead() time.Duration {
	if !nw.minLatSet {
		// No nodes yet: only control events can exist, and those run at
		// barriers; any positive lookahead is correct.
		return time.Second
	}
	if nw.minLat <= 0 {
		panic("simnet: sharded mode requires a positive Latency on every link profile (zero latency makes the conservative lookahead vanish)")
	}
	return 2 * nw.minLat
}

func (nw *Network) earliestShardEvent() (time.Duration, bool) {
	var best time.Duration
	have := false
	for _, sh := range nw.shards {
		if len(sh.heap) == 0 {
			continue
		}
		if t := sh.heap[0].at; !have || t < best {
			best, have = t, true
		}
	}
	return best, have
}

// syncClocks advances (never rewinds) the global and per-shard clocks to t.
func (nw *Network) syncClocks(t time.Duration) {
	if t > nw.now {
		nw.now = t
	}
	for _, sh := range nw.shards {
		if t > sh.now {
			sh.now = t
		}
	}
}

// startWorkers spawns the window worker pool for one Run invocation and
// returns its shutdown function. With one worker (or one shard) the
// dispatch loop runs inline — no goroutines, no synchronization — which is
// also what makes 1-worker timing runs clean baselines.
func (nw *Network) startWorkers() func() {
	k := nw.workers
	if k > len(nw.shards) {
		k = len(nw.shards)
	}
	if k <= 1 {
		return func() {}
	}
	jobs := make(chan int, len(nw.shards))
	nw.jobs = jobs
	var exit sync.WaitGroup
	for i := 0; i < k; i++ {
		exit.Add(1)
		go func() {
			defer exit.Done()
			for idx := range jobs {
				nw.runJob(idx)
				nw.jobsWG.Done()
			}
		}()
	}
	return func() {
		close(jobs)
		nw.jobs = nil
		exit.Wait()
	}
}

// dispatch fans the current job mode across every shard and waits for the
// batch — the barrier between window execution and outbox merging.
func (nw *Network) dispatch() {
	if nw.jobs == nil {
		for i := range nw.shards {
			nw.runJob(i)
		}
		return
	}
	nw.jobsWG.Add(len(nw.shards))
	for i := range nw.shards {
		nw.jobs <- i
	}
	nw.jobsWG.Wait()
}

func (nw *Network) runJob(idx int) {
	sh := nw.shards[idx]
	switch nw.jobMode {
	case jobWindow:
		sh.runWindow(nw.winEnd)
	case jobMerge:
		sh.drainInboxes()
	}
}

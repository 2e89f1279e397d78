package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// RPC layers a request/response discipline over raw messages. A node that
// serves RPCs keeps one method table: each entry holds the method's name,
// handler and the uplink lane its traffic rides, and a later registration
// of a method replaces the earlier one. A request is dispatched with one
// scan of that table, and every reply — a handler's answer or the refusal
// of an unserved method — is built by ReplyToken. A caller uses Call and
// receives either the response payload or a timeout. Request and response
// each traverse the network as ordinary messages, so they inherit latency,
// bandwidth, loss, crash, and partition behaviour.
//
// The hot path reads and writes no map and is allocation-free in steady
// state. The request envelope carries the caller's pending-call record and
// call id, the server echoes both in the reply, and the caller accepts the
// reply only if the record still holds that id: a (record, id) pair is a
// generation check, as a Timer's (event, gen) is. Call ids come from a
// per-shard counter and finished records go on a per-shard free list, so a
// record is only ever written by its own shard's worker. Envelopes recycle
// through a sync.Pool (alongside the engine's event pool), since they are
// built on one shard and consumed on another. The per-call timeout is
// scheduled through the closure-free AfterCall path with the pending record
// itself as the argument, and the completion is a value the caller already
// owns — a Completion, usually a pointer to the caller's own operation
// record — not a closure allocated per call. At 10k-node populations the
// RPC layer carries millions of messages per simulated minute, so a single
// capture or wrapper allocation per call shows up directly in the scale
// sweep (X15).

// rpcEnvelope wraps a request or response on the wire. Envelopes are
// pooled: the consuming side releases them back after extracting the
// payload, except when the network's duplicate-fault model may deliver the
// same envelope again (see newEnvelope).
type rpcEnvelope struct {
	// pc and id name the caller's pending call. The server never
	// dereferences pc; it only copies both into the reply.
	pc      *pendingCall
	id      uint64
	method  string
	payload any
	isReply bool
	ok      bool // server found a handler and produced a reply
	// recycle records, at send time, whether this envelope is safe to
	// return to the pool once consumed. A message sent while the network's
	// LinkFault duplicates traffic may be delivered twice sharing one
	// envelope pointer, so such envelopes are left to the GC instead.
	recycle bool
}

var envPool = sync.Pool{New: func() any { return new(rpcEnvelope) }}

// envReleaseHook, when non-nil, observes every envelope actually returned
// to the pool (it still sees the envelope's fields — it runs before the
// zeroing). Tests use it to pin the exactly-once recycle invariant across
// the reply, late-reply, and cancellation paths; it is nil in production.
var envReleaseHook func(*rpcEnvelope)

// Sentinel RPC failure causes, matchable with errors.Is. The resilience
// layer (internal/resil) keys retry decisions off them: a timeout may be a
// lost message and is worth retrying, while a refusal is the callee's
// deterministic answer and a caller crash invalidates the whole operation.
var (
	ErrRPCTimeout    = errors.New("rpc timeout")
	ErrNotServed     = errors.New("method not served")
	ErrCallerCrashed = errors.New("caller crashed")
)

// CallError is the error every failed call completes with. Its cause is
// one of the sentinels above, which Unwrap returns, so errors.Is matches
// as before; the message is formatted only when someone reads it.
type CallError struct {
	Method string
	From   NodeID // the calling node
	To     NodeID // the called node
	Wait   time.Duration
	cause  error
}

func (e *CallError) Error() string {
	switch e.cause {
	case ErrRPCTimeout:
		return fmt.Sprintf("simnet: call %s to node %d timed out after %v: %v", e.Method, e.To, e.Wait, e.cause)
	case ErrNotServed:
		return fmt.Sprintf("simnet: node %d does not serve %s: %v", e.To, e.Method, e.cause)
	default:
		return fmt.Sprintf("simnet: node %d crashed with call in flight: %v", e.From, e.cause)
	}
}

// Unwrap returns the sentinel cause.
func (e *CallError) Unwrap() error { return e.cause }

// callError builds the error pc completes with.
func (pc *pendingCall) callError(cause error) *CallError {
	return &CallError{Method: pc.method, From: pc.r.n.ID(), To: pc.to, Wait: pc.wait, cause: cause}
}

// Completion receives the outcome of one call, exactly once: the response
// payload on success, or a non-nil error on timeout, crash, or if the
// callee does not serve the method. rtt is the round trip on the global
// virtual clock, meaningful only when err is nil. Callers pass a value they
// already own — typically a pointer to their operation record — so issuing
// a call allocates no closure.
type Completion interface {
	CallDone(resp any, rtt time.Duration, err error)
}

// CallFunc adapts a plain callback to a Completion. A func value is
// pointer-shaped, so the conversion allocates nothing.
type CallFunc func(resp any, err error)

// CallDone implements Completion.
func (f CallFunc) CallDone(resp any, _ time.Duration, err error) { f(resp, err) }

// Caller is the client side of RPC as every protocol layer sees it. An
// *RPCNode is one; internal/resil's Client, which adds retries, hedging and
// circuit breaking around an RPCNode, is the other. A layer holds one
// Caller and never asks which it got: resil.Wrap returns the RPCNode itself
// when resilience is off, so "off" is the raw transport by identity.
//
// CallTo's CallRef may be the inert zero value when the Caller manages its
// own attempts (resil cancels its losing attempts itself).
type Caller interface {
	Node() *Node
	Call(to NodeID, method string, req any, reqSize int, timeout time.Duration, done func(resp any, err error))
	CallTo(to NodeID, method string, req any, reqSize int, timeout time.Duration, done Completion) CallRef
}

var _ Caller = (*RPCNode)(nil)

// newEnvelope returns a pooled envelope stamped with its recycling
// eligibility under the network's current fault model. Duplication is
// decided per message at send time, so an envelope sent while Duplicate is
// zero can never be delivered twice, no matter what faults appear later.
func newEnvelope(nw *Network) *rpcEnvelope {
	env := envPool.Get().(*rpcEnvelope)
	env.recycle = nw.fault.Duplicate <= 0
	return env
}

// releaseEnvelope recycles a consumed envelope when it is safe to do so.
func releaseEnvelope(env *rpcEnvelope) {
	if !env.recycle {
		return
	}
	if envReleaseHook != nil {
		envReleaseHook(env)
	}
	*env = rpcEnvelope{}
	envPool.Put(env)
}

const rpcKind = "simnet.rpc"

// RPCNode augments a Node with request/response plumbing. Create one per
// node that participates in RPC traffic.
type RPCNode struct {
	n       *Node
	methods []method
	// head and tail bound the node's outstanding calls, linked through
	// pendingCall.prev/next in issue order.
	head, tail *pendingCall
}

// method is one entry of an RPCNode's method table. handler is nil for a
// method that only has a lane (one this node calls but does not serve).
// Both the requests and the replies of a method travel on its lane.
type method struct {
	name    string
	handler RPCDeferredHandler
	lane    Lane
}

// lookup returns the table entry for name, or nil. A node serves a handful
// of methods, so a scan beats a map probe.
func (r *RPCNode) lookup(name string) *method {
	for i := range r.methods {
		if r.methods[i].name == name {
			return &r.methods[i]
		}
	}
	return nil
}

// entry returns the table entry for name, appending an empty one if the
// method has none yet.
func (r *RPCNode) entry(name string) *method {
	if m := r.lookup(name); m != nil {
		return m
	}
	r.methods = append(r.methods, method{name: name})
	return &r.methods[len(r.methods)-1]
}

// pendingCall is one outstanding request on the caller. It doubles as the
// argument of the closure-free timeout event, so it carries everything the
// timeout handler needs. A record is live while it holds a non-zero id;
// once the call ends it goes back to its shard's free list with id zero,
// and its next use draws a fresh id.
type pendingCall struct {
	r      *RPCNode
	id     uint64
	method string
	to     NodeID
	wait   time.Duration
	sentAt time.Duration // global virtual time at issue, for RTT reporting
	done   Completion
	// timeout is cancelled when the call ends otherwise, so no dead event
	// lingers.
	timeout Timer
	// prev and next link the record into its node's outstanding list while
	// live, and next links it into its shard's free list after.
	prev, next *pendingCall
}

// live reports whether pc is still the outstanding call id. A reply or
// CallRef naming an ended call, or one whose record has since been reused,
// fails the check.
func (pc *pendingCall) live(id uint64) bool { return pc.id == id }

// callPool is a shard's supply of call ids and pending-call records.
type callPool struct {
	seq  uint64
	free *pendingCall
}

// get returns a record stamped with the shard's next call id.
func (p *callPool) get() *pendingCall {
	pc := p.free
	if pc != nil {
		p.free = pc.next
		pc.next = nil
	} else {
		pc = new(pendingCall)
	}
	p.seq++
	pc.id = p.seq
	return pc
}

// put recycles an ended record.
func (p *callPool) put(pc *pendingCall) {
	*pc = pendingCall{next: p.free}
	p.free = pc
}

// issue links pc at the tail of r's outstanding list.
func (r *RPCNode) issue(pc *pendingCall) {
	pc.prev = r.tail
	if r.tail != nil {
		r.tail.next = pc
	} else {
		r.head = pc
	}
	r.tail = pc
}

// end ends the live call pc: it leaves its node's outstanding list, its
// timeout is cancelled and the record returns to its shard's free list. It
// returns the call's completion and, for a non-nil cause, the error to
// complete with. The caller runs the completion afterwards, so a
// re-entrant CallTo can already reuse the record.
func (pc *pendingCall) end(cause error) (Completion, error) {
	r := pc.r
	if pc.prev != nil {
		pc.prev.next = pc.next
	} else {
		r.head = pc.next
	}
	if pc.next != nil {
		pc.next.prev = pc.prev
	} else {
		r.tail = pc.prev
	}
	pc.timeout.Cancel()
	done := pc.done
	var err error
	if cause != nil {
		err = pc.callError(cause)
	}
	r.n.sh.calls.put(pc)
	return done, err
}

// rpcTimeoutEvent is the EventFunc behind every call timeout; arg is the
// *pendingCall itself, so scheduling it allocates nothing. Every other way
// a call ends cancels this event, so the record is live when it runs.
func rpcTimeoutEvent(arg any) {
	done, err := arg.(*pendingCall).end(ErrRPCTimeout)
	done.CallDone(nil, 0, err)
}

// RPCHandler serves one method: it receives the caller's node ID and request
// payload and returns the response payload and its simulated size in bytes.
type RPCHandler func(from NodeID, req any) (resp any, respSize int)

// NewRPCNode wires RPC handling onto n. Multiple protocol layers on the
// same node share one RPCNode: repeated calls return the existing
// instance, so each layer can register its own methods without clobbering
// the others' transport.
func NewRPCNode(n *Node) *RPCNode {
	if n.rpc != nil {
		return n.rpc
	}
	r := &RPCNode{n: n}
	n.rpc = r
	n.Handle(rpcKind, r.onMessage)
	// A crash fails the calls outstanding when it began, in issue order:
	// the caller's state is lost. Ids grow in issue order, so the drain
	// stops at the last one issued before the crash; a call a failure
	// callback issues stays pending until its own timeout, and a call a
	// failure callback cancels has already left the list.
	n.OnDown(func() {
		if r.tail == nil {
			return
		}
		last := r.tail.id
		for pc := r.head; pc != nil && pc.id <= last; pc = r.head {
			done, err := pc.end(ErrCallerCrashed)
			done.CallDone(nil, 0, err)
		}
	})
	return r
}

// Node returns the underlying simulated node.
func (r *RPCNode) Node() *Node { return r.n }

// Serve registers the synchronous handler for method, replacing whatever
// handler the method had. h is adapted to a deferred handler once, here,
// so serving a request allocates nothing per call.
func (r *RPCNode) Serve(method string, h RPCHandler) {
	r.ServeDeferred(method, func(from NodeID, req any, tok ReplyToken) { tok.Reply(h(from, req)) })
}

// RPCDeferredHandler serves a method by completing a ReplyToken, possibly
// from a later event (after a nested RPC, or a wait in internal/overload's
// queue). The token is a plain value — no closure is allocated per request
// — which is what lets a server queue thousands of requests without
// touching the heap in steady state. The handler (or whatever it hands the
// token to) calls Reply once per token.
type RPCDeferredHandler func(from NodeID, req any, tok ReplyToken)

// ReplyToken identifies one outstanding request. The zero value is inert;
// tokens are plain values and may be copied freely.
type ReplyToken struct {
	r      *RPCNode
	pc     *pendingCall // the caller's, echoed back untouched
	id     uint64
	from   NodeID
	method string
}

// From returns the calling node's ID.
func (t ReplyToken) From() NodeID { return t.from }

// Reply sends the response back to the caller, inheriting all virtual time
// the handler accrued. A token is answered once: a second Reply reaches the
// caller after the call completed and is dropped there as a late reply.
// Reply on a zero token is a no-op.
func (t ReplyToken) Reply(resp any, respSize int) {
	if t.r == nil {
		return
	}
	t.send(resp, respSize, true)
}

// send builds and transmits the reply envelope; served is false only for
// the refusal of a method without a handler. Every reply leaves through
// here.
func (t ReplyToken) send(resp any, respSize int, served bool) {
	reply := newEnvelope(t.r.n.nw)
	reply.pc, reply.id, reply.method, reply.isReply = t.pc, t.id, t.method, true
	reply.payload, reply.ok = resp, served
	t.r.sendEnvelope(t.from, reply, respSize+64)
}

// ServeDeferred registers the deferred handler for method, replacing
// whatever handler the method had.
func (r *RPCNode) ServeDeferred(method string, h RPCDeferredHandler) {
	r.entry(method).handler = h
}

// SetMethodLane assigns an uplink lane to a method, with or without a
// handler: requests and replies of that method are sent with the lane
// stamped, so on priority-enabled uplinks (Node.SetPriorityUplink) they
// serialize on the control cursor. Methods default to LaneBulk.
func (r *RPCNode) SetMethodLane(method string, lane Lane) {
	r.entry(method).lane = lane
}

// sendEnvelope transmits an RPC envelope on its method's lane. Lanes only
// change anything on a priority uplink, so only there is the lane looked
// up.
func (r *RPCNode) sendEnvelope(to NodeID, env *rpcEnvelope, size int) {
	lane := LaneBulk
	if r.n.prioUplink {
		if m := r.lookup(env.method); m != nil {
			lane = m.lane
		}
	}
	r.n.SendLane(to, rpcKind, env, size, lane)
}

// Call is CallTo with a plain callback: done is invoked exactly once, with
// the response payload or a non-nil error.
func (r *RPCNode) Call(to NodeID, method string, req any, reqSize int, timeout time.Duration, done func(resp any, err error)) {
	r.CallTo(to, method, req, reqSize, timeout, CallFunc(done))
}

// CallRef is a cancellable handle on an outstanding call. The zero value
// is inert.
type CallRef struct {
	pc *pendingCall
	id uint64
}

// Cancel abandons the referenced call if it is still outstanding: the
// timeout timer is removed, the pending record is recycled, and the
// Completion is never invoked. A reply arriving later for the
// cancelled call is dropped by the usual late-reply path, which still
// releases its envelope exactly once. A record never carries the same id
// twice, so a stale ref (the call ended, its record possibly reused) is a
// no-op. Reports whether an outstanding call was actually cancelled.
func (cr CallRef) Cancel() bool {
	if cr.pc == nil || !cr.pc.live(cr.id) {
		return false
	}
	cr.pc.end(nil)
	return true
}

// CallTo issues an asynchronous request to the target's method; done
// receives the outcome exactly once (see Completion). The timeout is a
// cancellable timer: a reply (or caller crash) removes it from the event
// queue instead of leaving it to fire dead. The returned CallRef can
// abandon the call — the hook the resilience layer's hedged requests use
// to cancel the losing attempt.
func (r *RPCNode) CallTo(to NodeID, method string, req any, reqSize int, timeout time.Duration, done Completion) CallRef {
	pc := r.n.sh.calls.get()
	pc.r, pc.method, pc.to, pc.wait = r, method, to, timeout
	pc.done = done
	pc.sentAt = r.n.Now()
	r.issue(pc)
	env := newEnvelope(r.n.nw)
	env.pc, env.id, env.method, env.payload = pc, pc.id, method, req
	r.sendEnvelope(to, env, reqSize+64)
	// The timeout runs on the caller's local clock: a fast-skewed node
	// gives up on its peers early, a slow one hangs on.
	pc.timeout = r.n.AfterCall(timeout, rpcTimeoutEvent, pc)
	return CallRef{pc: pc, id: pc.id}
}

func (r *RPCNode) onMessage(msg Message) {
	env, ok := msg.Payload.(*rpcEnvelope)
	if !ok {
		return
	}
	if env.isReply {
		pc, id, payload, served := env.pc, env.id, env.payload, env.ok
		releaseEnvelope(env)
		if !pc.live(id) {
			return // late reply after timeout or cancellation; drop
		}
		rtt := r.n.Now() - pc.sentAt
		var cause error
		if !served {
			cause, payload = ErrNotServed, nil
		}
		done, err := pc.end(cause)
		done.CallDone(payload, rtt, err)
		return
	}
	// Incoming request: copy out what the reply needs and release the
	// envelope before dispatch, so a handler that replies later holds no
	// envelope.
	tok := ReplyToken{r: r, pc: env.pc, id: env.id, from: msg.From, method: env.method}
	req := env.payload
	releaseEnvelope(env)
	if m := r.lookup(tok.method); m != nil && m.handler != nil {
		m.handler(tok.from, req, tok)
		return
	}
	tok.send(nil, 0, false)
}

package dht

// Iterative Kademlia lookup: query the α closest unqueried contacts in
// parallel, fold their replies into a distance-sorted shortlist, and stop
// when the K best contacts have all been queried (or a value is found in
// FIND_VALUE mode). Runs entirely on simnet callbacks — no goroutines.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Shortlist entry state bits.
const (
	queried uint8 = 1 << iota // a query to the contact was sent
	failed                    // that query failed: the contact is no result
)

// candidate is one shortlist entry.
type candidate struct {
	Contact
	state uint8
}

// lookupDone receives a lookup's outcome. closest, the K closest live
// contacts, is borrowed for the call only: it lives in the lookup's pooled
// buffers, so a receiver that keeps it must copy it.
type lookupDone interface {
	lookupDone(closest []Contact, value []byte, found bool)
}

// lookupFunc adapts a callback to lookupDone. A func value is
// pointer-shaped, so the conversion allocates nothing.
type lookupFunc func(closest []Contact, value []byte, found bool)

func (f lookupFunc) lookupDone(closest []Contact, value []byte, found bool) {
	f(closest, value, found)
}

// getFunc is Get's callback, handed to the lookup as it is.
type getFunc func(value []byte, ok bool)

func (f getFunc) lookupDone(_ []Contact, value []byte, found bool) { f(value, found) }

// lookupBuf holds a lookup's working buffers. It comes from lookupPool and
// goes back once the lookup has finished and its last query has completed,
// so in steady state a lookup allocates only its lookupState.
type lookupBuf struct {
	// shortlist holds the 2K closest contacts seen so far, sorted by
	// distance to the target. Contacts are inserted in place; one pushed
	// off the end can never come back, because the 2K-th distance only
	// falls.
	shortlist []candidate
	// queries are the Completions of the queries in flight, at most α;
	// a query takes a free one and frees it as it completes.
	queries []lookupQuery
	// out is the result handed to lookupDone.
	out []Contact
	pool.Mark
}

// lookupPool's reset keeps the buffers, and the query records their lookup:
// a query out when its buffer went back early releases it again, and Put panics.
var lookupPool = pool.New[lookupBuf]("dht.lookup", func(b *lookupBuf) {
	b.shortlist = b.shortlist[:0]
})

// lookupState is one lookup. It is never pooled: req is sent by pointer
// with every query, and a timed-out query's request can still reach its
// server after the lookup has finished.
type lookupState struct {
	p *Peer
	*lookupBuf
	// req is built once and sent by pointer with every query; servers only
	// read it.
	req      findNodeReq
	method   string
	inflight int
	finished bool
	span     obs.Span
	done     lookupDone
}

// lookupQuery is one query of a lookup: the contact asked.
type lookupQuery struct {
	ls   *lookupState
	c    Contact
	busy bool
}

func (p *Peer) lookup(target Key, wantValue bool, done lookupDone) {
	p.m.lookups.Inc()
	b := lookupPool.Get()
	if cap(b.shortlist) < 2*p.cfg.K {
		b.shortlist = make([]candidate, 0, 2*p.cfg.K)
	}
	if cap(b.queries) < p.cfg.Alpha {
		b.queries = make([]lookupQuery, p.cfg.Alpha)
	}
	if cap(b.out) < p.cfg.K {
		b.out = make([]Contact, 0, p.cfg.K)
	}
	b.queries = b.queries[:p.cfg.Alpha]
	ls := &lookupState{
		p:         p,
		lookupBuf: b,
		req:       findNodeReq{From: p.Contact(), Target: target},
		method:    methodFindNode,
		span:      p.Node().Obs().StartSpan("dht.lookup.duration_s", p.Node().Now()),
		done:      done,
	}
	if wantValue {
		ls.method = methodFindValue
	}
	// Start from the answer this peer would give itself.
	seed := p.closestReply(target)
	ls.merge(seed.Contacts)
	replyPool.Put(seed)
	ls.step()
}

// search returns the shortlist position of the first entry not closer to
// the target than id: id's own entry if it is listed, else where it would
// be inserted.
func (ls *lookupState) search(id Key) int {
	lo, hi := 0, len(ls.shortlist)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if DistanceLess(ls.req.Target, ls.shortlist[m].ID, id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// merge inserts the contacts it has not seen into the shortlist, keeping it
// sorted and at most 2K long.
func (ls *lookupState) merge(cs []Contact) {
	limit := 2 * ls.p.cfg.K
	for _, c := range cs {
		if c.ID == ls.p.id {
			continue
		}
		i := ls.search(c.ID)
		if i == limit || (i < len(ls.shortlist) && ls.shortlist[i].ID == c.ID) {
			continue
		}
		if len(ls.shortlist) < limit {
			ls.shortlist = append(ls.shortlist, candidate{})
		}
		copy(ls.shortlist[i+1:], ls.shortlist[i:])
		ls.shortlist[i] = candidate{Contact: c}
	}
}

// step issues queries until α are in flight or the lookup converges.
func (ls *lookupState) step() {
	if ls.finished {
		return
	}
	ls.p.m.hops.Inc()
	launched := 0
	for i := range ls.shortlist {
		if ls.inflight >= ls.p.cfg.Alpha {
			break
		}
		e := &ls.shortlist[i]
		if e.state != 0 {
			continue
		}
		e.state = queried
		ls.inflight++
		launched++
		ls.query(e.Contact)
	}
	if launched == 0 && ls.inflight == 0 {
		ls.finish(nil, false)
	}
}

func (ls *lookupState) query(c Contact) {
	i := 0
	for ls.queries[i].busy { // step keeps fewer than α in flight
		i++
	}
	q := &ls.queries[i]
	q.ls, q.c, q.busy = ls, c, true
	ls.p.rpc.CallTo(c.Addr, ls.method, &ls.req, 80, ls.p.cfg.RequestTimeout, q)
}

// CallDone folds one query's reply into the lookup.
func (q *lookupQuery) CallDone(resp any, _ time.Duration, err error) {
	ls, c := q.ls, q.c
	q.busy = false
	ls.inflight--
	r, _ := resp.(*findResp)
	if ls.finished {
		if r != nil {
			replyPool.Put(r)
		}
		if ls.inflight == 0 {
			lookupPool.Put(ls.lookupBuf)
		}
		return
	}
	if err != nil {
		if i := ls.search(c.ID); i < len(ls.shortlist) && ls.shortlist[i].ID == c.ID {
			ls.shortlist[i].state |= failed
		}
		ls.p.rt.remove(c.ID)
		ls.step()
		return
	}
	ls.p.observe(c)
	if r != nil {
		if r.Found {
			value := r.Value
			replyPool.Put(r)
			ls.finish(value, true)
			return
		}
		ls.merge(r.Contacts)
		replyPool.Put(r)
	}
	if ls.converged() {
		ls.finish(nil, false)
		return
	}
	ls.step()
}

// converged reports whether the K closest shortlist entries have all been
// queried (or failed) and nothing is in flight.
func (ls *lookupState) converged() bool {
	if ls.inflight > 0 {
		return false
	}
	for i, e := range ls.shortlist {
		if i == ls.p.cfg.K {
			break
		}
		if e.state == 0 {
			return false
		}
	}
	return true
}

func (ls *lookupState) finish(value []byte, found bool) {
	if ls.finished {
		return
	}
	ls.finished = true
	ls.span.End(ls.p.Node().Now())
	// Result: the K closest live contacts.
	out := ls.out[:0]
	for _, e := range ls.shortlist {
		if e.state&failed != 0 {
			continue
		}
		out = append(out, e.Contact)
		if len(out) == ls.p.cfg.K {
			break
		}
	}
	ls.done.lookupDone(out, value, found)
	if ls.inflight == 0 {
		lookupPool.Put(ls.lookupBuf)
	}
}

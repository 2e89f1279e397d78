package replic

import (
	"math"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Rate is one exponentially-decayed request counter: Observe adds a unit
// of demand at a virtual time, and the accumulated value halves every
// HalfLife. State is a pure function of the observation multiset — no
// clock, no randomness — and decay is applied lazily, so the hot path is
// a handful of float operations and allocates nothing.
type Rate struct {
	// HalfLife is the decay half-life. Two rates merge only if they
	// agree on it.
	HalfLife time.Duration
	v        float64
	last     time.Duration
}

// NewRate returns a zero-valued counter decaying with the given
// half-life.
func NewRate(halfLife time.Duration) Rate { return Rate{HalfLife: halfLife} }

// decayFactor returns 2^(-dt/halfLife); dt <= 0 decays nothing (a
// same-instant or out-of-order observation just accumulates — time never
// runs backwards on a simnet node, but merges normalize defensively).
func decayFactor(dt, halfLife time.Duration) float64 {
	if dt <= 0 || halfLife <= 0 {
		return 1
	}
	return math.Exp2(-dt.Seconds() / halfLife.Seconds())
}

// decayTo rolls the counter forward to now.
func (r *Rate) decayTo(now time.Duration) {
	if now > r.last {
		r.v *= decayFactor(now-r.last, r.HalfLife)
		r.last = now
	}
}

// Observe records one request at virtual time now.
func (r *Rate) Observe(now time.Duration) { r.AddAt(now, 1) }

// AddAt records w units of demand at virtual time now.
func (r *Rate) AddAt(now time.Duration, w float64) {
	r.decayTo(now)
	r.v += w
}

// Value returns the decayed demand as of now, without mutating the
// counter.
func (r Rate) Value(now time.Duration) float64 {
	if now <= r.last {
		return r.v
	}
	return r.v * decayFactor(now-r.last, r.HalfLife)
}

// pruneBelow is the demand floor under which an entry is dead weight: a
// fully decayed object whose value can never again cross ColdRate without
// fresh observations.
const pruneBelow = 1e-9

// remoteRate is one neighbor's advertised local demand for an object: the
// advertised totals decay on the same half-life from the moment they were
// advertised, and the per-region breakdown is a snapshot scaled by the
// same factor. Kept in a slice sorted by holder id so every aggregation
// over it runs in deterministic order.
type remoteRate struct {
	holder simnet.NodeID
	rate   Rate
	region []float64 // per-region demand snapshot, at rate.last
}

// objDemand is the per-object view: locally observed demand (total and
// per requester region) plus the latest advert from each other holder.
type objDemand struct {
	local  Rate
	region []Rate
	remote []remoteRate // sorted by holder id
}

// Demand tracks decayed request rates per object, broken down by
// requester region, and folds in neighbor adverts to estimate swarm-wide
// demand. All aggregation iterates fixed-order slices, so identical
// observation histories produce identical floats on every run.
type Demand struct {
	halfLife time.Duration
	regions  int
	objects  map[cryptoutil.Hash]*objDemand
}

// NewDemand returns an empty tracker for a geography of `regions`
// regions.
func NewDemand(halfLife time.Duration, regions int) *Demand {
	if regions < 1 {
		regions = 1
	}
	return &Demand{
		halfLife: halfLife,
		regions:  regions,
		objects:  map[cryptoutil.Hash]*objDemand{},
	}
}

func (d *Demand) entry(obj cryptoutil.Hash) *objDemand {
	e, ok := d.objects[obj]
	if !ok {
		e = &objDemand{local: NewRate(d.halfLife), region: make([]Rate, d.regions)}
		for i := range e.region {
			e.region[i] = NewRate(d.halfLife)
		}
		d.objects[obj] = e
	}
	return e
}

// Observe records one request for obj from a requester homed in region,
// at virtual time now. Steady-state cost is two lazy-decay updates and
// zero allocations (the entry is allocated once, on an object's first
// observation).
func (d *Demand) Observe(obj cryptoutil.Hash, region int, now time.Duration) {
	e := d.entry(obj)
	e.local.Observe(now)
	if region >= 0 && region < len(e.region) {
		e.region[region].Observe(now)
	}
}

// LocalRate returns this provider's own decayed request rate for obj in
// req/s — the quantity it advertises to neighbors.
func (d *Demand) LocalRate(obj cryptoutil.Hash, now time.Duration) float64 {
	e, ok := d.objects[obj]
	if !ok {
		return 0
	}
	return e.local.Value(now) * d.perSecond()
}

// perSecond converts accumulated decayed mass into an approximate req/s
// rate: a constant stream of q req/s accumulates q·HalfLife/ln2 of mass
// at equilibrium, so dividing by that horizon recovers q.
func (d *Demand) perSecond() float64 {
	if d.halfLife <= 0 {
		return 1
	}
	return math.Ln2 / d.halfLife.Seconds()
}

// SwarmRate estimates the swarm-wide request rate for obj in req/s: the
// local decayed rate plus every neighbor's advertised (and since-decayed)
// local rate, summed in holder-id order.
func (d *Demand) SwarmRate(obj cryptoutil.Hash, now time.Duration) float64 {
	e, ok := d.objects[obj]
	if !ok {
		return 0
	}
	sum := e.local.Value(now) * d.perSecond()
	for i := range e.remote {
		sum += e.remote[i].rate.Value(now)
	}
	return sum
}

// Advert folds in a neighbor holder's advertisement: its local rate (in
// req/s, already normalized by the sender) and per-region breakdown,
// replacing any previous advert from the same holder — adverts are
// snapshots, not increments, so re-advertising every tick never double
// counts.
func (d *Demand) Advert(obj cryptoutil.Hash, from simnet.NodeID, rate float64, region []float64, now time.Duration) {
	e := d.entry(obj)
	i := 0
	for i < len(e.remote) && e.remote[i].holder < from {
		i++
	}
	if i < len(e.remote) && e.remote[i].holder == from {
		e.remote[i].rate = Rate{HalfLife: d.halfLife, v: rate, last: now}
		e.remote[i].region = append(e.remote[i].region[:0], region...)
		return
	}
	e.remote = append(e.remote, remoteRate{})
	copy(e.remote[i+1:], e.remote[i:])
	e.remote[i] = remoteRate{
		holder: from,
		rate:   Rate{HalfLife: d.halfLife, v: rate, last: now},
		region: append([]float64(nil), region...),
	}
}

// RegionRates fills dst (len = regions) with the swarm-wide per-region
// decayed demand for obj: locally observed region rates plus every
// advertised breakdown scaled by its advert's decay. dst is reused by the
// caller so the hot path stays allocation-free.
func (d *Demand) RegionRates(obj cryptoutil.Hash, now time.Duration, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	e, ok := d.objects[obj]
	if !ok {
		return
	}
	for i := 0; i < len(e.region) && i < len(dst); i++ {
		dst[i] += e.region[i].Value(now) * d.perSecond()
	}
	for i := range e.remote {
		f := decayFactor(now-e.remote[i].rate.last, d.halfLife)
		for g := 0; g < len(e.remote[i].region) && g < len(dst); g++ {
			dst[g] += e.remote[i].region[g] * f
		}
	}
}

// LocalRegionRates fills dst with only the locally observed per-region
// rates in req/s — the breakdown a holder advertises.
func (d *Demand) LocalRegionRates(obj cryptoutil.Hash, now time.Duration, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	e, ok := d.objects[obj]
	if !ok {
		return
	}
	for i := 0; i < len(e.region) && i < len(dst); i++ {
		dst[i] = e.region[i].Value(now) * d.perSecond()
	}
}

// Len returns how many objects currently carry demand state.
//
//reach:the root alloc gate checks the tracker kept its live entries
func (d *Demand) Len() int { return len(d.objects) }

// Tick garbage-collects fully decayed state: stale neighbor adverts are
// dropped and objects whose every component has decayed below the prune
// floor are forgotten. Deletion order cannot leak — each entry's fate
// depends only on its own values — and the sweep allocates nothing, so
// it carries a zero allocation budget alongside Observe.
func (d *Demand) Tick(now time.Duration) {
	for obj, e := range d.objects { // determinism:ok per-entry prune, no cross-entry reads
		keep := e.local.Value(now) >= pruneBelow
		w := 0
		for i := range e.remote {
			if e.remote[i].rate.Value(now) >= pruneBelow {
				e.remote[w] = e.remote[i]
				w++
			}
		}
		e.remote = e.remote[:w]
		if w > 0 {
			keep = true
		}
		if !keep {
			for i := range e.region {
				if e.region[i].Value(now) >= pruneBelow {
					keep = true
					break
				}
			}
		}
		if !keep {
			delete(d.objects, obj)
		}
	}
}

package replic

import (
	"time"

	"repro/internal/simnet"
)

// Router ranks candidate replica holders by estimated proximity. Two
// knowledge sources feed it, in priority order:
//
//  1. measured reality — the resilience layer's per-peer smoothed RTT
//     (halved into a one-way estimate), once at least one sample exists
//     for the peer;
//  2. the region matrix — for peers never contacted, the configured
//     one-way inter-region delay from the client's region to the
//     holder's, plus a flat access-hop constant so a same-region
//     stranger never ties an RTT-measured 0.
//
// Ties break on node id, making Rank a total order over any candidate
// set: the repo-root property test pins that with no RTT samples the
// order is consistent with the region matrix's one-way delays.
type Router struct {
	self     int // the client's own region
	regionOf map[simnet.NodeID]int
	extra    [][]time.Duration
	// srtt returns the measured smoothed round trip for a peer, if any —
	// wired to resil.Client.PeerSRTT when the resilience layer is on.
	srtt func(simnet.NodeID) (time.Duration, bool)
}

// accessHop is the flat per-endpoint cost added to matrix-based
// estimates, standing in for the access latency both profiles contribute.
// Its exact value only shifts all matrix estimates equally; it exists so
// estimates are strictly positive.
const accessHop = 5 * time.Millisecond

// NewRouter builds a router for a client homed in region self.
// regionOf/extra mirror the arguments simnet.SetRegionMatrix was
// installed with (nil extra means a flat geography: all matrix estimates
// collapse to the access constant and ranking falls back to node-id
// order among unmeasured peers). srtt may be nil when no resilience layer
// is attached.
func NewRouter(self int, regionOf map[simnet.NodeID]int, extra [][]time.Duration, srtt func(simnet.NodeID) (time.Duration, bool)) *Router {
	return &Router{self: self, regionOf: regionOf, extra: extra, srtt: srtt}
}

// Estimate returns the one-way latency estimate used for ranking.
func (r *Router) Estimate(id simnet.NodeID) time.Duration {
	if r.srtt != nil {
		if s, ok := r.srtt(id); ok {
			return s / 2
		}
	}
	d := accessHop
	if r.extra != nil {
		g := r.regionOf[id] // absent nodes fall into region 0, as simnet does
		if r.self < len(r.extra) && g < len(r.extra[r.self]) {
			d += r.extra[r.self][g]
		}
	}
	return d
}

// Rank sorts holders in place by (Estimate, node id) ascending and
// returns the slice. The node-id tiebreak makes the order total, so the
// same candidate set always ranks identically. Each holder's estimate is
// computed once, before the sort. Insertion sort: candidate sets are
// replica lists (a handful of entries) and the routing hot path must not
// allocate, so the estimates live on the stack for lists up to 16 long.
func (r *Router) Rank(holders []simnet.NodeID) []simnet.NodeID {
	var buf [16]time.Duration
	est := buf[:0]
	for _, h := range holders {
		est = append(est, r.Estimate(h))
	}
	for i := 1; i < len(holders); i++ {
		h, e := holders[i], est[i]
		j := i - 1
		for ; j >= 0 && (est[j] > e || (est[j] == e && holders[j] > h)); j-- {
			holders[j+1], est[j+1] = holders[j], est[j]
		}
		holders[j+1], est[j+1] = h, e
	}
	return holders
}

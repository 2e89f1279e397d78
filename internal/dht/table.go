// Package dht implements a Kademlia distributed hash table over
// internal/simnet: 256-bit XOR metric, k-buckets with ping-before-evict
// liveness checks, iterative α-parallel lookups, STORE/FIND_VALUE, and
// periodic republish.
//
// The DHT is the discovery substrate for the decentralized storage layer
// (§3.3: IPFS-style content routing) and the hostless web layer (§3.4:
// "The public key is the new site address which can be looked up on
// trackers or DHTs").
package dht

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// Key is a 256-bit DHT identifier; node IDs and content keys share the
// space.
type Key = cryptoutil.Hash

// Contact is a (node ID, network address) pair.
type Contact struct {
	ID   Key
	Addr simnet.NodeID
}

// DistanceLess reports whether a is strictly closer to target than b. It
// compares the distances eight bytes at a time, most significant first.
func DistanceLess(target, a, b Key) bool {
	for i := 0; i < len(target); i += 8 {
		t := binary.BigEndian.Uint64(target[i:])
		da, db := binary.BigEndian.Uint64(a[i:])^t, binary.BigEndian.Uint64(b[i:])^t
		if da != db {
			return da < db
		}
	}
	return false
}

// BucketIndex returns the index of the k-bucket for a peer at the given
// XOR distance: 255 for the far half of the space down to 0 for the
// nearest non-equal IDs. Returns -1 for distance zero (self).
func BucketIndex(self, other Key) int {
	for i := 0; i < len(self); i += 8 {
		if d := binary.BigEndian.Uint64(self[i:]) ^ binary.BigEndian.Uint64(other[i:]); d != 0 {
			return 255 - (i*8 + bits.LeadingZeros64(d))
		}
	}
	return -1
}

// bucket is one k-bucket: least-recently-seen first, most-recently-seen
// last (classic Kademlia ordering).
type bucket struct {
	entries []Contact
}

// indexOf returns the position of id in the bucket, or -1. IDs are hashes,
// so their first eight bytes tell them apart before a full comparison.
func (b *bucket) indexOf(id Key) int {
	w := binary.LittleEndian.Uint64(id[:])
	for i := range b.entries {
		if binary.LittleEndian.Uint64(b.entries[i].ID[:]) == w && b.entries[i].ID == id {
			return i
		}
	}
	return -1
}

// moveToTail promotes entry i to most-recently-seen by rotating in place —
// no reallocation, so steady-state observe() of known contacts is
// allocation-free.
func (b *bucket) moveToTail(i int) {
	e := b.entries[i]
	copy(b.entries[i:], b.entries[i+1:])
	b.entries[len(b.entries)-1] = e
}

// drop removes entry i, keeping the recency order of the rest.
func (b *bucket) drop(i int) { b.entries = append(b.entries[:i], b.entries[i+1:]...) }

// routingTable is a 256-bucket Kademlia table stored compactly. A peer in
// a population of N fills only the ~log2(N) buckets at the far end, so
// buckets live in the dense slice b in order of first use: bit j of used
// says bucket j has a slot, and pos[j] is that slot. A slot outlives the
// contacts in it. n counts contacts so size() is O(1).
type routingTable struct {
	self Key
	k    int
	n    int
	used [4]uint64
	pos  [256]uint8
	b    []bucket
}

func newRoutingTable(self Key, k int) *routingTable {
	return &routingTable{self: self, k: k}
}

func (rt *routingTable) has(idx int) bool { return rt.used[idx>>6]&(1<<(idx&63)) != 0 }

// at returns bucket idx, or nil if it has never held a contact.
func (rt *routingTable) at(idx int) *bucket {
	if !rt.has(idx) {
		return nil
	}
	return &rt.b[rt.pos[idx]]
}

// slot returns bucket idx, giving it a slot first if it has none. The
// pointer is valid until the next slot is created.
func (rt *routingTable) slot(idx int) *bucket {
	if !rt.has(idx) {
		rt.used[idx>>6] |= 1 << (idx & 63)
		rt.pos[idx] = uint8(len(rt.b))
		rt.b = append(rt.b, bucket{})
	}
	return &rt.b[rt.pos[idx]]
}

// nextUsed returns the lowest bucket index ≥ from that has a slot, or 256.
func (rt *routingTable) nextUsed(from int) int {
	for w := from >> 6; w < len(rt.used); w++ {
		word := rt.used[w]
		if w == from>>6 {
			word &^= 1<<(from&63) - 1
		}
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return 256
}

// observe records contact activity. If the bucket is full it returns the
// least-recently-seen occupant and true: the caller pings it and calls
// evict or refresh. Otherwise it inserts or refreshes c and returns false.
func (rt *routingTable) observe(c Contact) (Contact, bool) {
	idx := BucketIndex(rt.self, c.ID)
	if idx < 0 {
		return Contact{}, false // self
	}
	bk := rt.slot(idx)
	if i := bk.indexOf(c.ID); i >= 0 {
		bk.moveToTail(i)
		return Contact{}, false
	}
	if len(bk.entries) < rt.k {
		bk.entries = append(bk.entries, c)
		rt.n++
		return Contact{}, false
	}
	return bk.entries[0], true
}

// evict removes old from its bucket and inserts repl at the tail. Used when
// the ping-before-evict liveness check on old fails.
func (rt *routingTable) evict(old Contact, repl Contact) {
	idx := BucketIndex(rt.self, old.ID)
	if idx < 0 {
		return
	}
	bk := rt.slot(idx)
	if i := bk.indexOf(old.ID); i >= 0 {
		bk.drop(i)
		rt.n--
	}
	if len(bk.entries) < rt.k && bk.indexOf(repl.ID) < 0 {
		bk.entries = append(bk.entries, repl)
		rt.n++
	}
}

// find returns the bucket holding id and its position there, or -1.
func (rt *routingTable) find(id Key) (*bucket, int) {
	idx := BucketIndex(rt.self, id)
	if idx < 0 {
		return nil, -1
	}
	bk := rt.at(idx)
	if bk == nil {
		return nil, -1
	}
	return bk, bk.indexOf(id)
}

// refresh moves a contact to most-recently-seen if present (used after a
// successful ping of an eviction candidate).
func (rt *routingTable) refresh(id Key) {
	if bk, i := rt.find(id); i >= 0 {
		bk.moveToTail(i)
	}
}

// remove drops a contact entirely (used when requests to it fail).
func (rt *routingTable) remove(id Key) {
	if bk, i := rt.find(id); i >= 0 {
		bk.drop(i)
		rt.n--
	}
}

// appendClosest appends to dst the up to n contacts nearest to target,
// sorted by XOR distance ascending, growing dst at most once.
//
// Buckets are walked in distance order. With i the target's own bucket,
// every contact in bucket i is within 2^i of the target, every contact in
// a bucket below i lies in [2^i, 2^(i+1)), and every contact in a bucket
// j > i lies in [2^j, 2^(j+1)). So the walk takes bucket i, then all the
// buckets below i as one group, then i+1, i+2, … one at a time; each group
// is farther than everything before it. Contacts go into the result by
// bounded insertion, and the walk stops at the first group boundary with n
// in hand — for most targets, after sorting one bucket of K. XOR distances
// are unique per pair, so the result is exactly the prefix a full sort of
// the table would give. A target equal to self has no bucket (i = -1) and
// the walk starts at bucket 0.
func (rt *routingTable) appendClosest(dst []Contact, target Key, n int) []Contact {
	n = min(n, rt.n)
	if n <= 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	base := len(dst)
	i := BucketIndex(rt.self, target)
	if i >= 0 {
		if bk := rt.at(i); bk != nil {
			dst = place(dst, base, n, target, bk.entries)
		}
		if len(dst)-base < n {
			for j := rt.nextUsed(0); j < i; j = rt.nextUsed(j + 1) {
				dst = place(dst, base, n, target, rt.b[rt.pos[j]].entries)
			}
		}
	}
	for j := rt.nextUsed(i + 1); j < 256 && len(dst)-base < n; j = rt.nextUsed(j + 1) {
		dst = place(dst, base, n, target, rt.b[rt.pos[j]].entries)
	}
	return dst
}

// place inserts cs into dst[base:], which it keeps sorted by distance to
// target and at most n long: a contact farther than a full result's last
// is skipped, a nearer one pushes the last out.
func place(dst []Contact, base, n int, target Key, cs []Contact) []Contact {
	for _, c := range cs {
		if len(dst)-base == n {
			if !DistanceLess(target, c.ID, dst[len(dst)-1].ID) {
				continue
			}
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, c)
		j := len(dst) - 1
		for ; j > base && DistanceLess(target, c.ID, dst[j-1].ID); j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = c
	}
	return dst
}

// size returns the number of contacts in the table.
func (rt *routingTable) size() int { return rt.n }

package storage

import (
	"container/list"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// LocalStore is a provider's tiered chunk store, after swarm's
// localstore/dbstore split: a bounded memory tier (pure cache, LRU) sits
// over a capacity-bounded simulated-disk tier that owns the bytes. Every
// chunk is stored once regardless of how many uploads reference it —
// Put is idempotent by content address and keeps a reference count — so
// overlapping uploads from different users deduplicate instead of
// duplicating, which is the economics the paper's §3.3 storage systems
// need to beat the feudal clouds on price.
//
// Eviction is two different things per tier. Memory-tier eviction is
// free: the entry stays on disk, only the cache slot is reclaimed.
// Disk-tier eviction is garbage collection: it is triggered only by
// capacity pressure, walks least-recently-used first, prefers chunks
// whose every reference has been released, and never touches a pinned
// chunk — pins are held by live storage contracts and by in-flight
// repairs reading the chunk as their restore source.
type LocalStore struct {
	cfg LocalStoreConfig

	entries  map[cryptoutil.Hash]*lsEntry
	memLRU   *list.List // front = least recently used
	diskLRU  *list.List
	memUsed  int64
	physUsed int64
	// logical counts every byte ever accepted by Put, duplicates
	// included; logical/physical is the dedup ratio.
	logical     int64
	gcReclaimed int64
	memHits     int64
	diskHits    int64

	// Optional observability (AttachMetrics); nil outside tiered worlds
	// so that stores in the historical configuration add no metric keys.
	obsMemHits     *obs.Counter
	obsDiskHits    *obs.Counter
	obsGCReclaimed *obs.Counter
	obsDedup       *obs.Gauge
}

// LocalStoreConfig sizes a tiered store.
type LocalStoreConfig struct {
	// Capacity bounds the disk tier in bytes.
	Capacity int64
	// MemCapacity bounds the memory tier in bytes; 0 disables it (every
	// read is a disk-tier read, as in the flat store this replaces).
	MemCapacity int64
	// GC enables capacity-triggered disk-tier garbage collection. When
	// false, a Put that would exceed Capacity is refused outright — the
	// historical provider behaviour.
	GC bool
}

// gcLowWater is the occupancy fraction GC reclaims down to once
// triggered. Collecting past the trigger point keeps one oversized Put
// from re-triggering GC on every subsequent write; a fifth of the disk
// buys headroom for many writes without evicting what is still hot.
const gcLowWater = 0.8

// lsEntry is one stored chunk with its tier and lifecycle state.
type lsEntry struct {
	id       cryptoutil.Hash
	data     []byte
	refs     int // uploads referencing this chunk, minus releases
	pins     int // live contracts + in-flight repairs; never GC'd while > 0
	accesses int64
	memEl    *list.Element // non-nil iff resident in the memory tier
	diskEl   *list.Element
}

// NewLocalStore builds a tiered store.
func NewLocalStore(cfg LocalStoreConfig) *LocalStore {
	return &LocalStore{
		cfg:     cfg,
		entries: map[cryptoutil.Hash]*lsEntry{},
		memLRU:  list.New(),
		diskLRU: list.New(),
	}
}

// AttachMetrics wires the store's tier and dedup metrics into an obs
// registry (typically the provider node's). Only tiered worlds call this:
// the historical provider configuration must not grow new metric keys.
func (ls *LocalStore) AttachMetrics(reg *obs.Registry) {
	ls.obsMemHits = reg.Counter("storage.tier.mem.hits")
	ls.obsDiskHits = reg.Counter("storage.tier.disk.hits")
	ls.obsGCReclaimed = reg.Counter("storage.gc.reclaimed_bytes")
	ls.obsDedup = reg.Gauge("storage.dedup.ratio")
	ls.publishDedup()
}

func (ls *LocalStore) publishDedup() {
	if ls.obsDedup != nil {
		ls.obsDedup.Set(ls.DedupRatio())
	}
}

// Put stores data under its content address, idempotently: a chunk
// already present gains a reference instead of a second copy. Returns
// false only when the disk tier cannot fit the new chunk even after GC.
func (ls *LocalStore) Put(id cryptoutil.Hash, data []byte) bool {
	n := int64(len(data))
	if e, ok := ls.entries[id]; ok {
		// Dedup hit: the bytes are already on disk; the new upload only
		// adds a reference. Accepting costs nothing even at capacity.
		e.refs++
		ls.logical += n
		ls.touch(e)
		ls.publishDedup()
		return true
	}
	if ls.physUsed+n > ls.cfg.Capacity {
		if !ls.cfg.GC || !ls.gc(n) {
			return false
		}
	}
	e := &lsEntry{id: id, data: append([]byte{}, data...), refs: 1}
	e.diskEl = ls.diskLRU.PushBack(e)
	ls.entries[id] = e
	ls.physUsed += n
	ls.logical += n
	ls.admitMem(e)
	ls.publishDedup()
	return true
}

// Get returns the chunk bytes, counting which tier served it. A disk-tier
// read promotes the chunk into the memory tier.
func (ls *LocalStore) Get(id cryptoutil.Hash) ([]byte, bool) {
	e, ok := ls.entries[id]
	if !ok {
		return nil, false
	}
	e.accesses++
	if e.memEl != nil {
		ls.memHits++
		if ls.obsMemHits != nil {
			ls.obsMemHits.Inc()
		}
	} else {
		ls.diskHits++
		if ls.obsDiskHits != nil {
			ls.obsDiskHits.Inc()
		}
		ls.admitMem(e)
	}
	ls.touch(e)
	return e.data, true
}

// Peek reads the chunk without tier-hit accounting or memory-tier
// promotion — proof challenges use it so audits do not skew the cache
// statistics the experiments measure. It still refreshes LRU recency:
// a challenged chunk is a live chunk.
func (ls *LocalStore) Peek(id cryptoutil.Hash) ([]byte, bool) {
	e, ok := ls.entries[id]
	if !ok {
		return nil, false
	}
	e.accesses++
	ls.touch(e)
	return e.data, true
}

// Pin marks the chunk exempt from GC (refcounted); contracts pin for
// their lifetime, repairs pin around the restore read.
func (ls *LocalStore) Pin(id cryptoutil.Hash) bool {
	e, ok := ls.entries[id]
	if !ok {
		return false
	}
	e.pins++
	return true
}

// Unpin drops one pin.
func (ls *LocalStore) Unpin(id cryptoutil.Hash) {
	if e, ok := ls.entries[id]; ok && e.pins > 0 {
		e.pins--
	}
}

// Release drops one upload reference. The bytes stay resident — release
// marks the chunk collectable, it does not delete; reclaim happens lazily
// when capacity pressure triggers GC, so a re-upload before then is a
// free dedup hit.
func (ls *LocalStore) Release(id cryptoutil.Hash) {
	if e, ok := ls.entries[id]; ok && e.refs > 0 {
		e.refs--
	}
}

// touch moves the entry to the recently-used end of its tier lists.
func (ls *LocalStore) touch(e *lsEntry) {
	ls.diskLRU.MoveToBack(e.diskEl)
	if e.memEl != nil {
		ls.memLRU.MoveToBack(e.memEl)
	}
}

// admitMem caches the entry in the memory tier, evicting colder residents
// to fit. Chunks larger than the whole tier are served from disk only.
func (ls *LocalStore) admitMem(e *lsEntry) {
	n := int64(len(e.data))
	if ls.cfg.MemCapacity <= 0 || n > ls.cfg.MemCapacity || e.memEl != nil {
		return
	}
	for ls.memUsed+n > ls.cfg.MemCapacity {
		front := ls.memLRU.Front()
		victim := front.Value.(*lsEntry)
		ls.memLRU.Remove(front)
		victim.memEl = nil
		ls.memUsed -= int64(len(victim.data))
	}
	e.memEl = ls.memLRU.PushBack(e)
	ls.memUsed += n
}

// gc reclaims disk-tier space for an incoming chunk of `need` bytes,
// targeting gcLowWater occupancy so one collection buys headroom for many
// writes. Two LRU passes: released chunks (refs == 0) first, then
// still-referenced ones — evicting those sacrifices redundancy the
// owner's repair loop must restore, which is the measured cost of running
// close to capacity. Pinned chunks are never evicted by either pass.
// Returns whether the incoming chunk now fits.
func (ls *LocalStore) gc(need int64) bool {
	if need > ls.cfg.Capacity {
		return false // no amount of eviction fits it; don't wipe the store
	}
	target := int64(gcLowWater * float64(ls.cfg.Capacity))
	if target > ls.cfg.Capacity-need {
		target = ls.cfg.Capacity - need
	}
	ls.evictLRU(target, true)
	if ls.physUsed > target {
		ls.evictLRU(target, false)
	}
	return ls.physUsed+need <= ls.cfg.Capacity
}

// evictLRU walks the disk tier cold-to-hot evicting eligible entries
// until physical occupancy reaches target. releasedOnly restricts
// eligibility to refs == 0 entries.
func (ls *LocalStore) evictLRU(target int64, releasedOnly bool) {
	for el := ls.diskLRU.Front(); el != nil && ls.physUsed > target; {
		next := el.Next()
		e := el.Value.(*lsEntry)
		if e.pins == 0 && (!releasedOnly || e.refs == 0) {
			ls.evict(e)
		}
		el = next
	}
}

// evict removes an entry from both tiers and counts the reclaim.
func (ls *LocalStore) evict(e *lsEntry) {
	n := int64(len(e.data))
	ls.diskLRU.Remove(e.diskEl)
	if e.memEl != nil {
		ls.memLRU.Remove(e.memEl)
		ls.memUsed -= n
	}
	delete(ls.entries, e.id)
	ls.physUsed -= n
	ls.gcReclaimed += n
	if ls.obsGCReclaimed != nil {
		ls.obsGCReclaimed.Add(n)
	}
}

// PhysicalBytes is the disk-tier occupancy: every unique chunk once.
func (ls *LocalStore) PhysicalBytes() int64 { return ls.physUsed }

// LogicalBytes is the byte volume of every accepted Put, duplicates
// included — what a flat store would have consumed.
func (ls *LocalStore) LogicalBytes() int64 { return ls.logical }

// MemBytes is the memory-tier occupancy.
func (ls *LocalStore) MemBytes() int64 { return ls.memUsed }

// DedupRatio is logical over physical bytes (1.0 when nothing overlaps;
// also 1.0 for an empty store).
func (ls *LocalStore) DedupRatio() float64 {
	if ls.physUsed == 0 {
		return 1
	}
	return float64(ls.logical) / float64(ls.physUsed)
}

// TierHits returns how many Gets each tier has served.
func (ls *LocalStore) TierHits() (mem, disk int64) { return ls.memHits, ls.diskHits }

// GCReclaimedBytes is the total disk-tier bytes reclaimed by GC.
func (ls *LocalStore) GCReclaimedBytes() int64 { return ls.gcReclaimed }

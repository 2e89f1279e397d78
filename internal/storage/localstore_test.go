package storage

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

func lsChunk(i, size int) (cryptoutil.Hash, []byte) {
	data := bytes.Repeat([]byte{byte(i + 1)}, size)
	data[0] = byte(i >> 8)
	return cryptoutil.SumHash(data), data
}

func TestLocalStoreDedup(t *testing.T) {
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 20})
	id, data := lsChunk(0, 100)
	for i := 0; i < 3; i++ {
		if !ls.Put(id, data) {
			t.Fatalf("put %d refused", i)
		}
	}
	if got := ls.PhysicalBytes(); got != 100 {
		t.Errorf("physical = %d, want 100 (one copy)", got)
	}
	if got := ls.LogicalBytes(); got != 300 {
		t.Errorf("logical = %d, want 300 (three accepted puts)", got)
	}
	if r := ls.DedupRatio(); r != 3 {
		t.Errorf("dedup ratio = %v, want 3", r)
	}
	if len(ls.entries) != 1 {
		t.Errorf("len = %d, want 1", len(ls.entries))
	}
	got, ok := ls.Get(id)
	if !ok || !bytes.Equal(got, data) {
		t.Error("get after dedup puts failed")
	}
}

func TestLocalStoreDedupHitAtCapacity(t *testing.T) {
	// A duplicate put costs no disk, so it must succeed even when the
	// store is full.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 100})
	id, data := lsChunk(0, 100)
	if !ls.Put(id, data) {
		t.Fatal("first put refused")
	}
	if !ls.Put(id, data) {
		t.Error("duplicate put refused at capacity")
	}
	id2, data2 := lsChunk(1, 1)
	if ls.Put(id2, data2) {
		t.Error("new put accepted beyond capacity without GC")
	}
}

func TestLocalStoreEmptyRatio(t *testing.T) {
	ls := NewLocalStore(LocalStoreConfig{Capacity: 10})
	if r := ls.DedupRatio(); r != 1 {
		t.Errorf("empty-store dedup ratio = %v, want 1", r)
	}
	if _, ok := ls.Get(cryptoutil.Hash{}); ok {
		t.Error("get on empty store succeeded")
	}
}

func TestLocalStoreMemTier(t *testing.T) {
	// Mem tier fits two 100-byte chunks. Writing three means the first
	// (coldest) is demoted; reading it is a disk hit that re-promotes it.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 20, MemCapacity: 200})
	ids := make([]cryptoutil.Hash, 3)
	for i := range ids {
		id, data := lsChunk(i, 100)
		ids[i] = id
		ls.Put(id, data)
	}
	if got := ls.MemBytes(); got != 200 {
		t.Fatalf("mem bytes = %d, want 200", got)
	}
	if _, ok := ls.Get(ids[0]); !ok {
		t.Fatal("get evicted-from-mem chunk failed")
	}
	mem, disk := ls.TierHits()
	if mem != 0 || disk != 1 {
		t.Errorf("tier hits = (%d, %d), want (0, 1): chunk 0 was demoted", mem, disk)
	}
	// Promotion happened: the second read is a mem hit.
	ls.Get(ids[0])
	if mem, _ := ls.TierHits(); mem != 1 {
		t.Errorf("mem hits after re-read = %d, want 1 (disk read promotes)", mem)
	}
	// Chunk 1 paid for the promotion (LRU among residents).
	ls.Get(ids[1])
	if _, disk := ls.TierHits(); disk != 2 {
		t.Errorf("disk hits = %d, want 2 (chunk 1 demoted by promotion)", disk)
	}
}

func TestLocalStoreMemOversize(t *testing.T) {
	// A chunk larger than the whole memory tier is served from disk only
	// and must not evict the resident cache.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 20, MemCapacity: 100})
	small, smallData := lsChunk(0, 80)
	big, bigData := lsChunk(1, 200)
	ls.Put(small, smallData)
	ls.Put(big, bigData)
	if got := ls.MemBytes(); got != 80 {
		t.Errorf("mem bytes = %d, want 80 (oversize chunk bypasses mem)", got)
	}
	ls.Get(small)
	if mem, _ := ls.TierHits(); mem != 1 {
		t.Error("small chunk should still be memory-resident")
	}
}

func TestLocalStorePeek(t *testing.T) {
	// Peek serves proofs: no tier-hit accounting, no promotion, but the
	// access count and recency still move.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 20, MemCapacity: 50})
	id, data := lsChunk(0, 100)
	ls.Put(id, data)
	got, ok := ls.Peek(id)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("peek failed")
	}
	mem, disk := ls.TierHits()
	if mem != 0 || disk != 0 {
		t.Errorf("peek counted tier hits (%d, %d)", mem, disk)
	}
	if ls.Accesses(id) != 1 {
		t.Errorf("accesses = %d, want 1", ls.Accesses(id))
	}
	if _, ok := ls.Peek(cryptoutil.SumHash([]byte("missing"))); ok {
		t.Error("peek of missing chunk succeeded")
	}
	if ls.Accesses(cryptoutil.SumHash([]byte("missing"))) != 0 {
		t.Error("accesses of missing chunk non-zero")
	}
}

func TestLocalStoreGCReleasedFirst(t *testing.T) {
	// Disk holds 10 × 100B. GC must evict released chunks before
	// still-referenced ones, LRU order within each pass.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1000, GC: true})
	ids := make([]cryptoutil.Hash, 10)
	for i := range ids {
		id, data := lsChunk(i, 100)
		ids[i] = id
		ls.Put(id, data)
	}
	// Release 3 and 7; touch 3 so 7 is the colder released chunk.
	ls.Release(ids[3])
	ls.Release(ids[7])
	ls.Get(ids[3])
	id, data := lsChunk(100, 100)
	if !ls.Put(id, data) {
		t.Fatal("put under GC refused")
	}
	// Target = 0.8*1000 = 800, so two evictions: both released chunks go,
	// no referenced chunk is touched.
	if ls.Has(ids[7]) || ls.Has(ids[3]) {
		t.Error("released chunks survived GC that needed their space")
	}
	for i, want := range ids {
		if i == 3 || i == 7 {
			continue
		}
		if !ls.Has(want) {
			t.Errorf("referenced chunk %d evicted while released chunks existed", i)
		}
	}
	if got := ls.GCReclaimedBytes(); got != 200 {
		t.Errorf("gc reclaimed = %d, want 200", got)
	}
}

func TestLocalStoreGCSecondPass(t *testing.T) {
	// No released chunks: GC's second pass must evict referenced (but
	// unpinned) chunks, coldest first, and spare pinned ones.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 400, GC: true})
	ids := make([]cryptoutil.Hash, 4)
	for i := range ids {
		id, data := lsChunk(i, 100)
		ids[i] = id
		ls.Put(id, data)
	}
	if !ls.Pin(ids[0]) {
		t.Fatal("pin failed")
	}
	if !ls.Pinned(ids[0]) {
		t.Fatal("pinned chunk not reported pinned")
	}
	id, data := lsChunk(100, 100)
	if !ls.Put(id, data) {
		t.Fatal("put under GC refused")
	}
	if !ls.Has(ids[0]) {
		t.Error("pinned chunk evicted")
	}
	if ls.Has(ids[1]) {
		t.Error("coldest unpinned chunk survived")
	}
	// Unpin makes it eligible again.
	ls.Unpin(ids[0])
	if ls.Pinned(ids[0]) {
		t.Error("chunk still pinned after unpin")
	}
}

func TestLocalStoreGCOversizedPut(t *testing.T) {
	// A chunk that can never fit must be refused without wiping the store.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 100, GC: true})
	id, data := lsChunk(0, 60)
	ls.Put(id, data)
	big, bigData := lsChunk(1, 200)
	if ls.Put(big, bigData) {
		t.Fatal("oversized put accepted")
	}
	if !ls.Has(id) {
		t.Error("resident chunk evicted for a put that could never fit")
	}
}

func TestLocalStoreReleaseUnderflow(t *testing.T) {
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 20})
	id, data := lsChunk(0, 10)
	ls.Put(id, data)
	ls.Release(id)
	ls.Release(id) // extra release must not underflow
	ls.Unpin(id)   // unpin without pin must not underflow
	if !ls.Has(id) {
		t.Error("release deleted the chunk (reclaim must be lazy)")
	}
}

func TestLocalStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	ls := NewLocalStore(LocalStoreConfig{Capacity: 300, MemCapacity: 100, GC: true})
	ls.AttachMetrics(reg)
	ids := make([]cryptoutil.Hash, 3)
	for i := range ids {
		id, data := lsChunk(i, 100)
		ids[i] = id
		ls.Put(id, data)
		ls.Put(id, data) // dedup hit
	}
	ls.Get(ids[2]) // mem hit (most recent is resident)
	ls.Get(ids[0]) // disk hit
	ls.Release(ids[0])
	id, data := lsChunk(100, 100)
	ls.Put(id, data) // forces GC
	if v := reg.Counter("storage.tier.mem.hits").Value(); v != 1 {
		t.Errorf("mem.hits = %d, want 1", v)
	}
	if v := reg.Counter("storage.tier.disk.hits").Value(); v != 1 {
		t.Errorf("disk.hits = %d, want 1", v)
	}
	if v := reg.Counter("storage.gc.reclaimed_bytes").Value(); v <= 0 {
		t.Errorf("gc.reclaimed_bytes = %d, want > 0", v)
	}
	if v := reg.Gauge("storage.dedup.ratio").Value(); v <= 1 {
		t.Errorf("dedup.ratio gauge = %v, want > 1", v)
	}
}

func TestLocalStoreLRUOrderAcrossOps(t *testing.T) {
	// Sanity sweep: interleaved puts/gets/peeks keep both LRU lists
	// consistent with the entry map (every eviction still finds its
	// elements). Exercised by evicting everything via GC pressure.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 500, MemCapacity: 200, GC: true})
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			id, data := lsChunk(round*5+i, 100)
			ls.Put(id, data)
			if i%2 == 0 {
				ls.Get(id)
			} else {
				ls.Peek(id)
			}
		}
		for i := 0; i < 5; i++ {
			id, _ := lsChunk(round*5+i, 100)
			ls.Release(id)
		}
	}
	if ls.PhysicalBytes() > 500 {
		t.Errorf("physical %d exceeds capacity", ls.PhysicalBytes())
	}
	if ls.MemBytes() > 200 {
		t.Errorf("mem %d exceeds mem capacity", ls.MemBytes())
	}
	if len(ls.entries) == 0 {
		t.Error("store ended empty")
	}
}

func TestLocalStorePinMissing(t *testing.T) {
	ls := NewLocalStore(LocalStoreConfig{Capacity: 10})
	if ls.Pin(cryptoutil.SumHash([]byte("nope"))) {
		t.Error("pin of missing chunk succeeded")
	}
}

func TestLocalStorePutCopies(t *testing.T) {
	// The store must own its bytes: mutating the caller's buffer after
	// Put must not corrupt the stored chunk.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 10})
	data := []byte("immutable once stored")
	id := cryptoutil.SumHash(data)
	ls.Put(id, data)
	data[0] = 'X'
	got, _ := ls.Get(id)
	if got[0] == 'X' {
		t.Error("store aliases the caller's buffer")
	}
}

func TestLocalStoreManyUniqueFill(t *testing.T) {
	// Fill to exactly capacity with unique chunks, then verify the next
	// put is refused without GC and accepted with it.
	for _, gc := range []bool{false, true} {
		ls := NewLocalStore(LocalStoreConfig{Capacity: 1000, GC: gc})
		for i := 0; i < 10; i++ {
			id, data := lsChunk(i, 100)
			if !ls.Put(id, data) {
				t.Fatalf("gc=%v: fill put %d refused", gc, i)
			}
		}
		id, data := lsChunk(100, 100)
		if got := ls.Put(id, data); got != gc {
			t.Errorf("gc=%v: over-capacity put accepted=%v", gc, got)
		}
	}
}

func TestLocalStoreAccessCounters(t *testing.T) {
	ls := NewLocalStore(LocalStoreConfig{Capacity: 1 << 10})
	id, data := lsChunk(0, 10)
	ls.Put(id, data)
	for i := 0; i < 3; i++ {
		ls.Get(id)
	}
	ls.Peek(id)
	if got := ls.Accesses(id); got != 4 {
		t.Errorf("accesses = %d, want 4", got)
	}
}

func TestLocalStoreStress(t *testing.T) {
	// Deterministic mixed workload against a small store; invariants
	// checked throughout: capacity respected, dedup ratio >= 1, tier
	// accounting non-negative.
	ls := NewLocalStore(LocalStoreConfig{Capacity: 2000, MemCapacity: 500, GC: true})
	for i := 0; i < 500; i++ {
		id, data := lsChunk(i%40, 50+(i%3)*25)
		ls.Put(id, data)
		if i%5 == 0 {
			ls.Get(id)
		}
		if i%11 == 0 {
			ls.Release(id)
		}
		if i%17 == 0 {
			ls.Pin(id)
		}
		if i%17 == 1 && i > 17 {
			prev, _ := lsChunk((i-1)%40, 50+((i-1)%3)*25)
			ls.Unpin(prev)
		}
		if ls.PhysicalBytes() > 2000 {
			t.Fatalf("step %d: physical %d over capacity", i, ls.PhysicalBytes())
		}
		if ls.MemBytes() > 500 {
			t.Fatalf("step %d: mem %d over capacity", i, ls.MemBytes())
		}
		if ls.DedupRatio() < 1 {
			t.Fatalf("step %d: dedup ratio %v < 1", i, ls.DedupRatio())
		}
	}
	mem, disk := ls.TierHits()
	if mem+disk == 0 {
		t.Error("no tier hits recorded")
	}
	if testing.Verbose() {
		fmt.Printf("stress: phys=%d mem=%d ratio=%.2f hits=(%d,%d) gc=%d\n",
			ls.PhysicalBytes(), ls.MemBytes(), ls.DedupRatio(), mem, disk, ls.GCReclaimedBytes())
	}
}

// Has reports presence without counting a tier hit.
func (ls *LocalStore) Has(id cryptoutil.Hash) bool {
	_, ok := ls.entries[id]
	return ok
}

// Pinned reports whether the chunk is currently pin-protected.
func (ls *LocalStore) Pinned(id cryptoutil.Hash) bool {
	e, ok := ls.entries[id]
	return ok && e.pins > 0
}

// Accesses returns the chunk's access count (test/stats introspection).
func (ls *LocalStore) Accesses(id cryptoutil.Hash) int64 {
	if e, ok := ls.entries[id]; ok {
		return e.accesses
	}
	return 0
}

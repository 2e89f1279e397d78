package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/resil"
	"repro/internal/storage"
	"repro/internal/storage/chunker"
)

// X17: overlapping-upload dedup and storage tiering. The paper's §3.3
// economics need volunteer storage to beat the feudal clouds on price,
// and the cheapest byte is the one never stored twice: when many users
// upload overlapping data (the same document base, a shared corpus, a
// re-upload after an edit), content-address dedup collapses the copies —
// but only if the chunker cuts the overlap into identical chunks. X17
// drives two overlapping-upload populations through fixed-size and
// content-defined chunking against providers running the tiered
// localstore (memory cache over capacity-bounded disk, GC):
//
//	shared-prefix  every user's document = one common prefix + a unique
//	               tail. Chunk alignment is preserved, so even fixed-size
//	               chunking dedups the prefix; the workload calibrates
//	               what alignment is worth.
//	edited-doc     every user's document = one common base with a handful
//	               of random insertions. Insertions shift every later
//	               byte, so fixed-size chunks stop matching at the first
//	               edit; content-defined boundaries re-synchronise within
//	               a window and keep deduping (LBFS's founding
//	               observation).
//
// Per cell: the fleet dedup ratio (logical bytes accepted over physical
// bytes stored), the memory-tier hit rate over a re-download pass, the
// repair traffic after a provider crash (repairs run with source pinning
// so GC cannot evict a chunk mid-restore), and the disk bytes GC reclaims
// once users release their uploads and filler traffic applies capacity
// pressure. Everything is a pure function of the seed.

// dedupSpec sizes one X17 world. Dedup is a per-provider effect — a
// replica only collapses onto a copy that landed on the same provider —
// so the populations keep users-per-provider high enough that shared
// chunks actually collide, and edits sparse enough (relative to the
// chunk count) that most of an edited document is untouched content.
type dedupSpec struct {
	users     int // uploaders sharing overlapping documents
	providers int
	docBytes  int // base document size
	replicas  int
	avgChunk  int // CDC average chunk size; fixed mode uses it as the chunk size
	edits     int // random insertions per user in the edited-doc workload
}

func dedupSpecFor(tiny bool) dedupSpec {
	if tiny {
		return dedupSpec{users: 6, providers: 3, docBytes: 16 << 10, replicas: 2, avgChunk: 512, edits: 3}
	}
	return dedupSpec{users: 16, providers: 6, docBytes: 64 << 10, replicas: 2, avgChunk: 1024, edits: 6}
}

// provCapacity sizes the disk tier: twice a provider's even share of the
// logical upload volume, so uploads never contend but the filler phase
// reliably forces GC.
func (sp dedupSpec) provCapacity() int64 {
	share := int64(sp.users) * int64(sp.docBytes) * int64(sp.replicas) / int64(sp.providers)
	return 2 * share
}

// The workload generators build the per-user documents; rng must come
// from the world so the documents are a function of the seed alone.
func sharedPrefixDocs(rng *rand.Rand, sp dedupSpec) [][]byte {
	prefix := make([]byte, sp.docBytes*3/4)
	rng.Read(prefix)
	docs := make([][]byte, sp.users)
	for i := range docs {
		tail := make([]byte, sp.docBytes/4)
		rng.Read(tail)
		docs[i] = append(append([]byte{}, prefix...), tail...)
	}
	return docs
}

func editedDocs(rng *rand.Rand, sp dedupSpec) [][]byte {
	base := make([]byte, sp.docBytes)
	rng.Read(base)
	docs := make([][]byte, sp.users)
	for i := range docs {
		doc := append([]byte{}, base...)
		for e := 0; e < sp.edits; e++ {
			// Variable-length insertions: if every user inserted the same
			// byte total, the fixed-size grid would re-align past each
			// user's last edit (identical cumulative shift) and fixed
			// chunking would accidentally dedup the suffix.
			ins := make([]byte, 8+rng.Intn(25))
			rng.Read(ins)
			at := rng.Intn(len(doc) + 1)
			doc = append(doc[:at], append(ins, doc[at:]...)...)
		}
		docs[i] = doc
	}
	return docs
}

type dedupWorkload struct {
	name string
	gen  func(rng *rand.Rand, sp dedupSpec) [][]byte
}

func dedupWorkloads() []dedupWorkload {
	return []dedupWorkload{
		{"shared-prefix", sharedPrefixDocs},
		{"edited-doc", editedDocs},
	}
}

// dedupCell is one (workload, chunking mode) measurement.
type dedupCell struct {
	ratio    float64 // logical / physical bytes across the fleet, post-upload
	memHit   float64 // memory-tier share of tier hits over the download passes
	repairKB float64 // repair payload after one provider crash
	gcKB     float64 // disk bytes reclaimed by GC in the release+filler phase
}

// dedupResult carries the cell plus per-provider tier occupancy for the
// `feudalism dedup -stats` view.
type dedupResult struct {
	cell     dedupCell
	physB    []int64
	memB     []int64
	capacity int64
}

// dedupRun is the numeric core of one X17 cell: build the tiered world,
// upload the overlapping population, re-download it twice, crash and
// repair, then release and squeeze until GC collects.
func dedupRun(env Env, wl dedupWorkload, cdc bool, sp dedupSpec) dedupResult {
	nw := env.Net()
	capacity := sp.provCapacity()
	fleet := newStorageFleet(nw, sp.providers, 10*time.Second, resil.Config{}, storage.ProviderConfig{
		Capacity:    capacity,
		MemCapacity: capacity / 8,
	})
	client, provs, pool := fleet.client, fleet.provs, fleet.pool
	client.EnableRepairPinning()
	var ck *chunker.Chunker
	if cdc {
		var err error
		if ck, err = chunker.New(chunker.Defaults(sp.avgChunk)); err != nil {
			panic(err)
		}
	}

	// Phase 1: the overlapping-upload population.
	docs := wl.gen(nw.Rand(), sp)
	objs := make([]*storedObject, len(docs))
	for i, doc := range docs {
		o := &storedObject{data: doc}
		objs[i] = o
		record := func(m *storage.Manifest, pl *storage.Placement, err error) {
			if err == nil {
				o.m, o.pl = m, pl
			}
		}
		if cdc {
			client.UploadCDC(doc, ck, pool, sp.replicas, record)
		} else {
			client.Upload(doc, sp.avgChunk, pool, sp.replicas, record)
		}
	}
	nw.Run(nw.Now() + time.Minute)
	var logical, physical int64
	for _, p := range provs {
		logical += p.Store().LogicalBytes()
		physical += p.Store().PhysicalBytes()
	}
	ratio := 1.0
	if physical > 0 {
		ratio = float64(logical) / float64(physical)
	}

	// Phase 2: two full re-download passes. The first pass warms the
	// memory tier beyond what the uploads left resident; the second
	// harvests it. The hit split is the tiering payoff on a read-heavy
	// population.
	for pass := 0; pass < 2; pass++ {
		for _, o := range objs {
			if o.m == nil {
				continue
			}
			client.Download(o.m, o.pl, func([]byte, error) {})
		}
		nw.Run(nw.Now() + time.Minute)
	}
	var memHits, diskHits int64
	for _, p := range provs {
		m, d := p.Store().TierHits()
		memHits += m
		diskHits += d
	}
	memHit := 0.0
	if memHits+diskHits > 0 {
		memHit = float64(memHits) / float64(memHits+diskHits)
	}

	// Phase 3: crash one provider, audit every object, repair with
	// source pinning. Repair volume is where dedup pays a second time:
	// fewer unique chunks lost means fewer bytes re-replicated.
	repairBase := client.RepairBytes()
	provs[0].Node().Crash()
	nw.Run(nw.Now() + 10*time.Second)
	for _, o := range objs {
		if o.m == nil {
			continue
		}
		o := o
		client.Audit(o.m, o.pl, 5*time.Second, func(r *storage.AuditReport) {
			for _, res := range r.Results {
				if !res.OK {
					o.pl.Remove(o.m.Chunks[res.ChunkIndex], res.Holder)
				}
			}
			client.Repair(o.m, o.pl, pool, func(int, error) {})
		})
	}
	nw.Run(nw.Now() + 2*time.Minute)
	repairKB := float64(client.RepairBytes()-repairBase) / 1024

	// Phase 4: the first object's owner keeps (and pins) it; everyone
	// else releases. Filler uploads then apply capacity pressure until
	// GC runs — it must reclaim the released chunks and spare the pinned
	// ones.
	if objs[0].m != nil {
		client.PinObject(objs[0].m, objs[0].pl, func(int) {})
	}
	for _, o := range objs[1:] {
		if o.m == nil {
			continue
		}
		client.ReleaseObject(o.m, o.pl, func(int) {})
	}
	nw.Run(nw.Now() + 30*time.Second)
	fillers := int(capacity * int64(sp.providers) / int64(sp.docBytes))
	for i := 0; i < fillers; i++ {
		filler := make([]byte, sp.docBytes)
		nw.Rand().Read(filler)
		client.Upload(filler, sp.avgChunk, pool, 1, func(*storage.Manifest, *storage.Placement, error) {})
	}
	nw.Run(nw.Now() + 2*time.Minute)

	res := dedupResult{
		cell:     dedupCell{ratio: ratio, memHit: memHit, repairKB: repairKB},
		capacity: capacity,
	}
	var gc int64
	for _, p := range provs {
		gc += p.Store().GCReclaimedBytes()
		res.physB = append(res.physB, p.Store().PhysicalBytes())
		res.memB = append(res.memB, p.Store().MemBytes())
	}
	res.cell.gcKB = float64(gc) / 1024
	return res
}

// dedupMatrix is the numeric core of X17: workload × chunking mode rows,
// four measures per row.
func dedupMatrix(env Env) Matrix {
	sp := dedupSpecFor(env.Tiny)
	wls := dedupWorkloads()
	m := Matrix{Cols: []string{"dedup ratio", "mem hit%", "repair KB", "gc KB"}}
	for _, wl := range wls {
		for _, mode := range []string{"fixed", "cdc"} {
			r := dedupRun(env, wl, mode == "cdc", sp)
			m.add(wl.name+" "+mode, r.cell.ratio, r.cell.memHit*100, r.cell.repairKB, r.cell.gcKB)
		}
	}
	return m
}

// DedupSim is the operator's view of one X17 world (`feudalism dedup`):
// both workloads at the full-scale spec and one chunking mode. stats
// appends per-provider tier occupancy rows, where the bytes sit after GC.
func DedupSim(seed int64, cdc, stats bool) *Table {
	env, sp := Env{Seed: seed}, dedupSpecFor(false)
	mode := "fixed"
	if cdc {
		mode = "cdc"
	}
	t := &Table{
		Title:   fmt.Sprintf("X17 dedup: %d users × %d providers, %s chunking @ %d B", sp.users, sp.providers, mode, sp.avgChunk),
		Headers: []string{"Workload", "dedup ratio", "mem hit%", "repair KB", "gc KB"},
	}
	var results []dedupResult
	for _, wl := range dedupWorkloads() {
		r := dedupRun(env, wl, cdc, sp)
		results = append(results, r)
		t.Add(wl.name,
			fmt.Sprintf("%.2f×", r.cell.ratio),
			fmt.Sprintf("%.0f%%", r.cell.memHit*100),
			fmt.Sprintf("%.0f", r.cell.repairKB),
			fmt.Sprintf("%.0f", r.cell.gcKB))
	}
	if stats {
		for wi, wl := range dedupWorkloads() {
			r := results[wi]
			for p := range r.physB {
				t.Add(fmt.Sprintf("  %s provider %d", wl.name, p),
					fmt.Sprintf("disk %d/%d KB", r.physB[p]/1024, r.capacity/1024),
					fmt.Sprintf("mem %d KB", r.memB[p]/1024), "", "")
			}
		}
	}
	return t
}

package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/erasure"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage/chunker"
)

// Client is a storage consumer: it uploads objects with a chosen redundancy
// scheme, downloads with failover, audits holders with proof-of-storage
// challenges, and repairs lost redundancy.
type Client struct {
	rpc     *simnet.RPCNode // audits call it raw, on purpose (see NewClient)
	xfer    simnet.Caller   // resil.Wrap'd: transfers (puts, fetches, pins)
	timeout time.Duration
	// pinRepairs makes Repair pin its restore sources at the holders for
	// the duration of the repair (see EnableRepairPinning). Off by
	// default: the pin/unpin round trips would change the historical
	// repair traffic, and GC only exists in tiered worlds.
	pinRepairs bool

	// Observability: network-wide repair volume (chunk copies restored and
	// their payload bytes); repair latency is spanned per Repair call as
	// storage.repair.duration_s.
	obsRepairChunks *obs.Counter
	obsRepairBytes  *obs.Counter
}

// NewClient creates a storage client on node. timeout bounds individual
// transfer RPCs (auditing uses its own deadline); rcfg is the resilience
// configuration for the transfer path, the zero value being the historical
// fixed-timeout transport (no retries). Audits stay on the raw transport
// either way: the challenge deadline is itself the proof-of-storage timing
// test, and retrying or hedging it would hand outsourcing providers free
// extra time.
func NewClient(node *simnet.Node, timeout time.Duration, rcfg resil.Config) *Client {
	rpc := simnet.NewRPCNode(node)
	return &Client{
		rpc:             rpc,
		xfer:            resil.Wrap(rpc, rcfg),
		timeout:         timeout,
		obsRepairChunks: node.Obs().Counter("storage.repair.chunks"),
		obsRepairBytes:  node.Obs().Counter("storage.repair.bytes"),
	}
}

// EnableRepairPinning makes every Repair pin the chunks it reads as
// restore sources at their holders, and unpin them once the lost
// redundancy is re-placed. On providers running capacity-triggered GC
// this closes the window where a repair's source chunk — possibly the
// last surviving copy — could be evicted between the audit that found it
// and the fetch that reads it.
func (c *Client) EnableRepairPinning() { c.pinRepairs = true }

// RepairBytes returns the cumulative payload bytes this client's repairs
// have restored (the storage.repair.bytes counter), for experiments that
// charge repair volume to a phase by differencing.
func (c *Client) RepairBytes() int64 { return c.obsRepairBytes.Value() }

// Upload stores data with replication: every chunk goes to `replicas`
// distinct providers drawn from the given pool. done receives the manifest
// and placement, or an error if any chunk could not reach the target
// redundancy. chunkSize <= 0 selects DefaultChunkSize.
func (c *Client) Upload(data []byte, chunkSize int, providers []ProviderRef, replicas int, done func(*Manifest, *Placement, error)) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	c.upload(data, splitFixed(data, chunkSize), &Manifest{Mode: ModeReplicate, Replicas: replicas}, providers, done)
}

// UploadCDC stores data with replication like Upload, but cuts it with
// the given content-defined chunker instead of at fixed offsets. Two
// uploaders splitting overlapping data with the same chunker configuration
// produce identical chunks for the shared content — that is what lets
// providers deduplicate them.
func (c *Client) UploadCDC(data []byte, ck *chunker.Chunker, providers []ProviderRef, replicas int, done func(*Manifest, *Placement, error)) {
	if ck == nil {
		done(nil, nil, errors.New("storage: UploadCDC needs a chunker"))
		return
	}
	var parts [][]byte
	ck.Split(data, func(part []byte) { parts = append(parts, part) })
	c.upload(data, parts, &Manifest{Mode: ModeReplicate, Replicas: replicas}, providers, done)
}

// UploadErasure stores data as a (k, k+m) Reed–Solomon shard set, one shard
// per provider.
func (c *Client) UploadErasure(data []byte, k, parity int, providers []ProviderRef, done func(*Manifest, *Placement, error)) {
	code, err := erasure.New(k, parity)
	if err != nil {
		done(nil, nil, err)
		return
	}
	if len(providers) < k+parity {
		done(nil, nil, fmt.Errorf("storage: erasure (%d,%d) needs %d providers, have %d", k, k+parity, k+parity, len(providers)))
		return
	}
	shards, err := code.Encode(code.Split(data))
	if err != nil {
		done(nil, nil, err)
		return
	}
	c.upload(data, shards, &Manifest{Mode: ModeErasure, DataShards: k, ParityShards: parity, Replicas: 1}, providers, done)
}

// upload completes m for data cut into parts — the file ID and size, then
// each part's address, length and proof root, in order — and places every
// chunk on m.Replicas providers.
func (c *Client) upload(data []byte, parts [][]byte, m *Manifest, providers []ProviderRef, done func(*Manifest, *Placement, error)) {
	if m.Replicas <= 0 || len(providers) < m.Replicas {
		done(nil, nil, fmt.Errorf("storage: need ≥%d providers for %d replicas, have %d", m.Replicas, m.Replicas, len(providers)))
		return
	}
	m.FileID, m.Size = cryptoutil.SumHash(data), len(data)
	chunks := make([]Chunk, len(parts))
	for i, part := range parts {
		chunks[i] = NewChunk(part)
		m.Chunks = append(m.Chunks, chunks[i].ID)
		m.ChunkLens = append(m.ChunkLens, len(part))
		m.ChunkRoots = append(m.ChunkRoots, chunkProofRoot(part))
	}
	c.placeChunks(chunks, providers, m.Replicas, func(pl *Placement, err error) {
		done(m, pl, err)
	})
}

// join is the fan-in every multi-RPC operation completes through. It
// starts holding one count, the issuer's: add one before issuing each
// item, release once as each item completes, and release the issuer's
// count after the last item is issued. done runs once, at the release that
// brings the count to zero — after every item, even ones that complete
// synchronously, and at once when there were none.
type join struct {
	n    int
	done func()
}

func newJoin(done func()) *join { return &join{n: 1, done: done} }

func (j *join) add() { j.n++ }

func (j *join) release() {
	if j.n--; j.n == 0 {
		j.done()
	}
}

// placeChunks distributes each chunk to `replicas` distinct providers,
// spreading chunks across the pool round-robin from a random offset.
func (c *Client) placeChunks(chunks []Chunk, providers []ProviderRef, replicas int, done func(*Placement, error)) {
	pl := NewPlacement()
	failed := 0
	j := newJoin(func() {
		var err error
		if failed > 0 {
			err = fmt.Errorf("storage: %d chunk placements failed", failed)
		}
		done(pl, err)
	})
	offset := c.rpc.Node().Rand().Intn(len(providers))
	// A put travels lossy links; transport-level retries are the
	// resilience layer's job (NewClient's rcfg), which also knows that a
	// refusal is the provider's deterministic answer and final.
	for ci, ch := range chunks {
		for r := 0; r < replicas; r++ {
			target := providers[(offset+ci*replicas+r)%len(providers)]
			j.add()
			c.xfer.Call(target.Node, methodPut, putReq{Chunk: ch}, len(ch.Data)+48, c.timeout, func(resp any, err error) {
				if ok, _ := resp.(bool); err == nil && ok {
					pl.Add(ch.ID, target)
				} else {
					failed++
				}
				j.release()
			})
		}
	}
	j.release()
}

// Download retrieves and reassembles an object, verifying every chunk
// against its content address and failing over across holders. In erasure
// mode any k healthy shards suffice.
func (c *Client) Download(m *Manifest, pl *Placement, done func(data []byte, err error)) {
	parts := make([][]byte, len(m.Chunks))
	j := newJoin(func() { done(assemble(m, parts)) })
	for i, id := range m.Chunks {
		j.add()
		c.fetchChunk(id, pl.Holders[id], 0, func(data []byte, ok bool) {
			if ok {
				parts[i] = data
			}
			j.release()
		})
	}
	j.release()
}

// assemble rebuilds an object from its fetched chunks (nil where no holder
// answered) and checks the result against the file ID.
func assemble(m *Manifest, parts [][]byte) ([]byte, error) {
	var out []byte
	if m.Mode == ModeErasure {
		code, err := erasure.New(m.DataShards, m.ParityShards)
		if err != nil {
			return nil, err
		}
		have := 0
		for _, d := range parts {
			if d != nil {
				have++
			}
		}
		if have < m.DataShards {
			return nil, fmt.Errorf("storage: only %d/%d shards available, need %d", have, len(parts), m.DataShards)
		}
		if err := code.Reconstruct(parts); err != nil {
			return nil, err
		}
		if out, err = code.Join(parts, m.Size); err != nil {
			return nil, err
		}
	} else {
		for i, d := range parts {
			if d == nil {
				return nil, fmt.Errorf("storage: chunk %d unrecoverable", i)
			}
			out = append(out, d...)
		}
	}
	if cryptoutil.SumHash(out) != m.FileID {
		return nil, errors.New("storage: reassembled file hash mismatch")
	}
	return out, nil
}

// fetchChunk tries holders in order until one returns data matching the
// content address.
func (c *Client) fetchChunk(id cryptoutil.Hash, holders []ProviderRef, i int, done func([]byte, bool)) {
	if i >= len(holders) {
		done(nil, false)
		return
	}
	c.xfer.Call(holders[i].Node, methodGet, id, 40, c.timeout, func(resp any, err error) {
		if err == nil {
			if gr, ok := resp.(getResp); ok && gr.OK && cryptoutil.SumHash(gr.Data) == id {
				done(gr.Data, true)
				return
			}
		}
		c.fetchChunk(id, holders, i+1, done)
	})
}

// AuditResult is the outcome of one proof-of-storage challenge.
type AuditResult struct {
	ChunkIndex int
	Holder     ProviderRef
	OK         bool
	Err        string
}

// AuditReport aggregates an audit pass over a manifest.
type AuditReport struct {
	Results []AuditResult
}

// Passed returns how many challenges succeeded.
func (r *AuditReport) Passed() int {
	n := 0
	for _, res := range r.Results {
		if res.OK {
			n++
		}
	}
	return n
}

// Failed returns how many challenges failed.
func (r *AuditReport) Failed() int { return len(r.Results) - r.Passed() }

// Audit issues one random-leaf proof-of-storage challenge to every holder
// of every chunk. deadline bounds each challenge round trip; a correct
// answer arriving after the deadline counts as failure (catching
// outsourcing attacks by timing).
func (c *Client) Audit(m *Manifest, pl *Placement, deadline time.Duration, done func(*AuditReport)) {
	report := &AuditReport{}
	j := newJoin(func() { done(report) })
	rng := c.rpc.Node().Rand()
	for ci, id := range m.Chunks {
		root := m.ChunkRoots[ci]
		// Providers reject out-of-range leaves, so the leaf is drawn from
		// the chunk's own length in the manifest's chunk table.
		leafCount := numProofLeaves(m.ChunkLens[ci])
		for _, holder := range pl.Holders[id] {
			req := challengeReq{ChunkID: id, Leaf: rng.Intn(leafCount)}
			j.add()
			c.rpc.Call(holder.Node, methodChallenge, req, 48, deadline, func(resp any, err error) {
				res := AuditResult{ChunkIndex: ci, Holder: holder}
				if err != nil {
					res.Err = err.Error()
				} else if cr, ok := resp.(challengeResp); !ok || !cr.OK {
					res.Err = "challenge refused"
				} else if !cryptoutil.VerifyProof(root, cr.LeafData, cr.Proof) {
					res.Err = "merkle proof invalid"
				} else {
					res.OK = true
				}
				report.Results = append(report.Results, res)
				j.release()
			})
		}
	}
	j.release()
}

// callHolders sends method(id) to every holder under j, counting the
// acknowledgements into *acked.
func (c *Client) callHolders(j *join, method string, id cryptoutil.Hash, holders []ProviderRef, acked *int) {
	for _, h := range holders {
		j.add()
		c.xfer.Call(h.Node, method, id, 40, c.timeout, func(resp any, err error) {
			if ok, _ := resp.(bool); err == nil && ok {
				*acked++
			}
			j.release()
		})
	}
}

// forEachChunkHolder sends method to every (chunk, holder) pair of the
// manifest's current placement, then calls done with how many were
// acknowledged.
func (c *Client) forEachChunkHolder(m *Manifest, pl *Placement, method string, done func(acked int)) {
	acked := 0
	j := newJoin(func() { done(acked) })
	for _, id := range m.Chunks {
		c.callHolders(j, method, id, pl.Holders[id], &acked)
	}
	j.release()
}

// PinObject pins every chunk of the object at every holder — the wiring
// a live storage contract uses so capacity-triggered GC on the provider
// can never evict contracted data.
func (c *Client) PinObject(m *Manifest, pl *Placement, done func(acked int)) {
	c.forEachChunkHolder(m, pl, methodPin, done)
}

// ReleaseObject tells every holder the object is deleted: each chunk
// loses one reference. Providers keep the bytes until GC wants the
// space — dedup means another object may still reference the same chunk,
// and the refcount tracks exactly that.
func (c *Client) ReleaseObject(m *Manifest, pl *Placement, done func(acked int)) {
	c.forEachChunkHolder(m, pl, methodRelease, done)
}

// pinHolders pins chunk id at each holder and calls done once every pin
// RPC resolves; with repair pinning off it sends nothing and calls done at
// once.
func (c *Client) pinHolders(id cryptoutil.Hash, holders []ProviderRef, done func()) {
	j := newJoin(done)
	if c.pinRepairs {
		c.callHolders(j, methodPin, id, holders, new(int))
	}
	j.release()
}

// unpinHolders releases repair pins, fire-and-forget.
func (c *Client) unpinHolders(id cryptoutil.Hash, holders []ProviderRef) {
	if !c.pinRepairs {
		return
	}
	for _, h := range holders {
		c.xfer.Call(h.Node, methodUnpin, id, 40, c.timeout, func(any, error) {})
	}
}

// Repair restores target redundancy after provider failures. In replicate
// mode it copies surviving replicas onto fresh providers from the pool; in
// erasure mode it reconstructs lost shards from any k survivors and
// re-places them. Either way the restore sources are pinned at their
// holders first (see EnableRepairPinning). done receives how many chunk
// copies were restored.
func (c *Client) Repair(m *Manifest, pl *Placement, pool []ProviderRef, done func(restored int, err error)) {
	node := c.rpc.Node()
	span := node.Obs().StartSpan("storage.repair.duration_s", node.Now())
	inner := done
	done = func(restored int, err error) {
		span.End(node.Now())
		inner(restored, err)
	}
	if m.Mode == ModeErasure {
		c.repairErasure(m, pl, pool, done)
	} else {
		c.repairReplicate(m, pl, pool, done)
	}
}

func (c *Client) repairReplicate(m *Manifest, pl *Placement, pool []ProviderRef, done func(int, error)) {
	restored := 0
	var anyErr error
	j := newJoin(func() { done(restored, anyErr) })
	for _, id := range m.Chunks {
		missing := m.Replicas - pl.Count(id)
		if missing <= 0 {
			continue
		}
		j.add()
		// Pin the restore sources first (when enabled): between here and
		// the fetch, a GC on the holder must not evict what may be the
		// last surviving copy.
		src := append([]ProviderRef(nil), pl.Holders[id]...)
		c.pinHolders(id, src, func() {
			c.fetchChunk(id, pl.Holders[id], 0, func(data []byte, ok bool) {
				if !ok {
					c.unpinHolders(id, src)
					anyErr = fmt.Errorf("storage: chunk %s has no surviving replica", id.Short())
					j.release()
					return
				}
				c.placeOnFresh(NewChunk(data), pl, pool, nil, missing, func(placed int) {
					c.unpinHolders(id, src)
					restored += placed
					if placed < missing && anyErr == nil {
						anyErr = fmt.Errorf("storage: chunk %s restored %d/%d copies", id.Short(), placed, missing)
					}
					j.release()
				})
			})
		})
	}
	j.release()
}

func (c *Client) repairErasure(m *Manifest, pl *Placement, pool []ProviderRef, done func(int, error)) {
	// Which shards are lost?
	lost := 0
	for _, id := range m.Chunks {
		if pl.Count(id) == 0 {
			lost++
		}
	}
	if lost == 0 {
		done(0, nil)
		return
	}
	// Pin every surviving shard holder (when enabled), fetch all available
	// shards, reconstruct, re-place the missing ones. The pins hold for
	// the whole reconstruct: losing one more shard mid-repair could drop
	// the set below k and turn a repairable object into a dead one.
	type pinned struct {
		id      cryptoutil.Hash
		holders []ProviderRef
	}
	var pins []pinned
	for _, id := range m.Chunks {
		if hs := pl.Holders[id]; len(hs) > 0 {
			pins = append(pins, pinned{id: id, holders: append([]ProviderRef(nil), hs...)})
		}
	}
	inner := done
	done = func(restored int, err error) {
		for _, p := range pins {
			c.unpinHolders(p.id, p.holders)
		}
		inner(restored, err)
	}
	shards := make([][]byte, len(m.Chunks))
	fetched := newJoin(func() { c.replaceShards(m, pl, pool, shards, lost, done) })
	allPinned := newJoin(func() {
		for i, id := range m.Chunks {
			fetched.add()
			c.fetchChunk(id, pl.Holders[id], 0, func(data []byte, ok bool) {
				if ok {
					shards[i] = data
				}
				fetched.release()
			})
		}
		fetched.release()
	})
	for _, p := range pins {
		allPinned.add()
		c.pinHolders(p.id, p.holders, allPinned.release)
	}
	allPinned.release()
}

// replaceShards reconstructs an erasure-coded object's lost shards from
// the fetched ones (nil where lost) and places each on a provider that
// holds no other shard of the object.
func (c *Client) replaceShards(m *Manifest, pl *Placement, pool []ProviderRef, shards [][]byte, lost int, done func(int, error)) {
	code, err := erasure.New(m.DataShards, m.ParityShards)
	if err != nil {
		done(0, err)
		return
	}
	if err := code.Reconstruct(shards); err != nil {
		done(0, err)
		return
	}
	restored := 0
	j := newJoin(func() {
		var err error
		if restored < lost {
			err = fmt.Errorf("storage: restored %d/%d lost shards", restored, lost)
		}
		done(restored, err)
	})
	// Shards of one object must sit on distinct providers: co-locating
	// them would let one death erase several shards.
	occupied := map[simnet.NodeID]bool{}
	for _, id := range m.Chunks {
		for _, h := range pl.Holders[id] {
			occupied[h.Node] = true
		}
	}
	for si, id := range m.Chunks {
		if pl.Count(id) > 0 {
			continue
		}
		ch := NewChunk(shards[si])
		j.add()
		c.placeOnFresh(ch, pl, pool, occupied, 1, func(placed int) {
			restored += placed
			for _, h := range pl.Holders[ch.ID] {
				occupied[h.Node] = true
			}
			j.release()
		})
	}
	j.release()
}

// placeOnFresh puts a chunk on up to want providers that do not already
// hold it (nor appear in exclude), trying pool members in a random order so
// repeated repairs spread load instead of piling every restored chunk onto
// the first live pool member. Every copy placed counts as repair volume.
func (c *Client) placeOnFresh(ch Chunk, pl *Placement, pool []ProviderRef, exclude map[simnet.NodeID]bool, want int, done func(placed int)) {
	holders := map[simnet.NodeID]bool{}
	for _, h := range pl.Holders[ch.ID] {
		holders[h.Node] = true
	}
	var candidates []ProviderRef
	for _, p := range pool {
		if !holders[p.Node] && !exclude[p.Node] {
			candidates = append(candidates, p)
		}
	}
	rng := c.rpc.Node().Rand()
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	placed := 0
	var try func(i int)
	try = func(i int) {
		if placed >= want || i >= len(candidates) {
			c.obsRepairChunks.Add(int64(placed))
			c.obsRepairBytes.Add(int64(placed * len(ch.Data)))
			done(placed)
			return
		}
		target := candidates[i]
		c.xfer.Call(target.Node, methodPut, putReq{Chunk: ch}, len(ch.Data)+48, c.timeout, func(resp any, err error) {
			if ok, _ := resp.(bool); err == nil && ok {
				pl.Add(ch.ID, target)
				placed++
			}
			try(i + 1)
		})
	}
	try(0)
}

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
// redundancy.
func (c *Client) Upload(data []byte, chunkSize int, providers []ProviderRef, replicas int, done func(*Manifest, *Placement, error)) {
	if replicas <= 0 || len(providers) < replicas {
		done(nil, nil, fmt.Errorf("storage: need ≥%d providers for %d replicas, have %d", replicas, replicas, len(providers)))
		return
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	chunks := SplitChunks(data, chunkSize)
	m := &Manifest{
		FileID:    cryptoutil.SumHash(data),
		Size:      len(data),
		ChunkSize: chunkSize,
		Mode:      ModeReplicate,
		Replicas:  replicas,
	}
	for _, ch := range chunks {
		m.Chunks = append(m.Chunks, ch.ID)
		m.ChunkRoots = append(m.ChunkRoots, chunkProofRoot(ch.Data))
	}
	c.placeChunks(chunks, providers, replicas, func(pl *Placement, err error) {
		done(m, pl, err)
	})
}

// UploadCDC stores data with replication like Upload, but cuts it with
// the given content-defined chunker instead of at fixed offsets. The
// manifest records the variable-length chunk table (ChunkLens) alongside
// the content addresses and per-chunk proof roots, so downloads, audits
// and repairs work unchanged. Two uploaders splitting overlapping data
// with the same chunker configuration produce identical chunks for the
// shared content — that is what lets providers deduplicate them.
func (c *Client) UploadCDC(data []byte, ck *chunker.Chunker, providers []ProviderRef, replicas int, done func(*Manifest, *Placement, error)) {
	if ck == nil {
		done(nil, nil, errors.New("storage: UploadCDC needs a chunker"))
		return
	}
	if replicas <= 0 || len(providers) < replicas {
		done(nil, nil, fmt.Errorf("storage: need ≥%d providers for %d replicas, have %d", replicas, replicas, len(providers)))
		return
	}
	m := &Manifest{
		FileID:   cryptoutil.SumHash(data),
		Size:     len(data),
		Mode:     ModeReplicate,
		Replicas: replicas,
	}
	var chunks []Chunk
	ck.Split(data, func(part []byte) {
		ch := NewChunk(part)
		chunks = append(chunks, ch)
		m.Chunks = append(m.Chunks, ch.ID)
		m.ChunkLens = append(m.ChunkLens, len(part))
		m.ChunkRoots = append(m.ChunkRoots, chunkProofRoot(part))
	})
	c.placeChunks(chunks, providers, replicas, func(pl *Placement, err error) {
		done(m, pl, err)
	})
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
	m := &Manifest{
		FileID:       cryptoutil.SumHash(data),
		Size:         len(data),
		Mode:         ModeErasure,
		DataShards:   k,
		ParityShards: parity,
		Replicas:     1,
	}
	var chunks []Chunk
	for _, s := range shards {
		ch := NewChunk(s)
		chunks = append(chunks, ch)
		m.Chunks = append(m.Chunks, ch.ID)
		m.ChunkRoots = append(m.ChunkRoots, chunkProofRoot(s))
	}
	c.placeChunks(chunks, providers, 1, func(pl *Placement, err error) {
		done(m, pl, err)
	})
}

// placeChunks distributes each chunk to `replicas` distinct providers,
// spreading chunks across the pool round-robin from a random offset.
func (c *Client) placeChunks(chunks []Chunk, providers []ProviderRef, replicas int, done func(*Placement, error)) {
	pl := NewPlacement()
	pending := 0
	failed := 0
	finished := false
	rng := c.rpc.Node().Rand()
	offset := rng.Intn(len(providers))
	check := func() {
		if pending == 0 && !finished {
			finished = true
			if failed > 0 {
				done(pl, fmt.Errorf("storage: %d chunk placements failed", failed))
				return
			}
			done(pl, nil)
		}
	}
	// A put travels lossy links; transport-level retries are the
	// resilience layer's job (NewClient's rcfg), which also knows that a
	// refusal is the provider's deterministic answer and final.
	put := func(ch Chunk, target ProviderRef) {
		c.xfer.Call(target.Node, methodPut, putReq{Chunk: ch}, len(ch.Data)+48, c.timeout, func(resp any, err error) {
			pending--
			ok, _ := resp.(bool)
			if err != nil || !ok {
				failed++
			} else {
				pl.Add(ch.ID, target)
			}
			check()
		})
	}
	for ci, ch := range chunks {
		for r := 0; r < replicas; r++ {
			target := providers[(offset+ci*replicas+r)%len(providers)]
			pending++
			put(ch, target)
		}
	}
	if pending == 0 {
		check()
	}
}

// Download retrieves and reassembles an object, verifying every chunk
// against its content address and failing over across holders. In erasure
// mode any k healthy shards suffice.
func (c *Client) Download(m *Manifest, pl *Placement, done func(data []byte, err error)) {
	n := len(m.Chunks)
	results := make([][]byte, n)
	remaining := n
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		switch m.Mode {
		case ModeReplicate:
			var out []byte
			for i, d := range results {
				if d == nil {
					done(nil, fmt.Errorf("storage: chunk %d unrecoverable", i))
					return
				}
				out = append(out, d...)
			}
			if cryptoutil.SumHash(out) != m.FileID {
				done(nil, errors.New("storage: reassembled file hash mismatch"))
				return
			}
			done(out, nil)
		case ModeErasure:
			code, err := erasure.New(m.DataShards, m.ParityShards)
			if err != nil {
				done(nil, err)
				return
			}
			have := 0
			for _, d := range results {
				if d != nil {
					have++
				}
			}
			if have < m.DataShards {
				done(nil, fmt.Errorf("storage: only %d/%d shards available, need %d", have, len(results), m.DataShards))
				return
			}
			if err := code.Reconstruct(results); err != nil {
				done(nil, err)
				return
			}
			out, err := code.Join(results, m.Size)
			if err != nil {
				done(nil, err)
				return
			}
			if cryptoutil.SumHash(out) != m.FileID {
				done(nil, errors.New("storage: reconstructed file hash mismatch"))
				return
			}
			done(out, nil)
		}
	}
	for i := range m.Chunks {
		i := i
		c.fetchChunk(m.Chunks[i], pl.Holders[m.Chunks[i]], 0, func(data []byte, ok bool) {
			if ok {
				results[i] = data
			}
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
	if n == 0 {
		finish()
	}
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
	pending := 0
	finished := false
	check := func() {
		if pending == 0 && !finished {
			finished = true
			done(report)
		}
	}
	rng := c.rpc.Node().Rand()
	for ci, id := range m.Chunks {
		root := m.ChunkRoots[ci]
		// Chunk sizes vary; challenge a random leaf within the smallest
		// plausible bound. Providers reject out-of-range leaves, so derive
		// the leaf bound from manifest size per chunk.
		leafCount := numProofLeaves(chunkDataLen(m, ci))
		for _, holder := range pl.Holders[id] {
			pending++
			ci, holder := ci, holder
			leaf := rng.Intn(leafCount)
			req := challengeReq{ChunkID: id, Leaf: leaf}
			c.rpc.Call(holder.Node, methodChallenge, req, 48, deadline, func(resp any, err error) {
				pending--
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
				check()
			})
		}
	}
	if pending == 0 {
		check()
	}
}

// chunkDataLen returns the byte length of chunk ci per the manifest.
func chunkDataLen(m *Manifest, ci int) int {
	if ci < len(m.ChunkLens) {
		return m.ChunkLens[ci] // content-defined: explicit chunk table
	}
	switch m.Mode {
	case ModeErasure:
		if m.DataShards == 0 {
			return 0
		}
		shardLen := (m.Size + m.DataShards - 1) / m.DataShards
		if shardLen == 0 {
			shardLen = 1
		}
		return shardLen
	default:
		n := len(m.Chunks)
		if n == 0 || m.ChunkSize <= 0 {
			return 0
		}
		if ci == n-1 {
			last := m.Size - m.ChunkSize*(n-1)
			if last >= 0 {
				return last
			}
		}
		return m.ChunkSize
	}
}

// forEachChunkHolder runs op once per (chunk, holder) pair of the
// manifest's current placement, then calls done with how many ops were
// acknowledged. The chunk/holder RPC fan-out shared by the object
// lifecycle helpers below.
func (c *Client) forEachChunkHolder(m *Manifest, pl *Placement, method string, done func(acked int)) {
	pending := 0
	acked := 0
	finished := false
	check := func() {
		if pending == 0 && !finished {
			finished = true
			if done != nil {
				done(acked)
			}
		}
	}
	for _, id := range m.Chunks {
		for _, h := range pl.Holders[id] {
			pending++
			id, h := id, h
			c.xfer.Call(h.Node, method, id, 40, c.timeout, func(resp any, err error) {
				pending--
				if ok, _ := resp.(bool); err == nil && ok {
					acked++
				}
				check()
			})
		}
	}
	if pending == 0 {
		check()
	}
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
// RPC resolves. A no-op (immediate done) unless repair pinning is on.
func (c *Client) pinHolders(id cryptoutil.Hash, holders []ProviderRef, done func()) {
	if !c.pinRepairs || len(holders) == 0 {
		done()
		return
	}
	pending := len(holders)
	for _, h := range holders {
		c.xfer.Call(h.Node, methodPin, id, 40, c.timeout, func(any, error) {
			pending--
			if pending == 0 {
				done()
			}
		})
	}
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
// re-places them. done receives how many chunk copies were restored.
func (c *Client) Repair(m *Manifest, pl *Placement, pool []ProviderRef, done func(restored int, err error)) {
	node := c.rpc.Node()
	span := node.Obs().StartSpan("storage.repair.duration_s", node.Now())
	inner := done
	done = func(restored int, err error) {
		span.End(node.Now())
		inner(restored, err)
	}
	switch m.Mode {
	case ModeReplicate:
		c.repairReplicate(m, pl, pool, done)
	case ModeErasure:
		c.repairErasure(m, pl, pool, done)
	default:
		done(0, errors.New("storage: unknown placement mode"))
	}
}

func (c *Client) repairReplicate(m *Manifest, pl *Placement, pool []ProviderRef, done func(int, error)) {
	type job struct {
		id      cryptoutil.Hash
		missing int
	}
	var jobs []job
	for _, id := range m.Chunks {
		if n := pl.Count(id); n < m.Replicas {
			jobs = append(jobs, job{id: id, missing: m.Replicas - n})
		}
	}
	if len(jobs) == 0 {
		done(0, nil)
		return
	}
	restored := 0
	pending := len(jobs)
	var anyErr error
	for _, j := range jobs {
		j := j
		// Pin the restore sources first (when enabled): between here and
		// the fetch, a GC on the holder must not evict what may be the
		// last surviving copy.
		src := append([]ProviderRef(nil), pl.Holders[j.id]...)
		c.pinHolders(j.id, src, func() {
			c.fetchChunk(j.id, pl.Holders[j.id], 0, func(data []byte, ok bool) {
				if !ok {
					c.unpinHolders(j.id, src)
					anyErr = fmt.Errorf("storage: chunk %s has no surviving replica", j.id.Short())
					pending--
					if pending == 0 {
						done(restored, anyErr)
					}
					return
				}
				c.placeOnFresh(NewChunk(data), pl, pool, nil, j.missing, func(placed int) {
					c.unpinHolders(j.id, src)
					restored += placed
					c.obsRepairChunks.Add(int64(placed))
					c.obsRepairBytes.Add(int64(placed * len(data)))
					if placed < j.missing && anyErr == nil {
						anyErr = fmt.Errorf("storage: chunk %s restored %d/%d copies", j.id.Short(), placed, j.missing)
					}
					pending--
					if pending == 0 {
						done(restored, anyErr)
					}
				})
			})
		})
	}
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
	// Fetch all available shards, reconstruct, re-place the missing ones.
	// Surviving shard holders are pinned for the whole reconstruct (when
	// enabled): losing one more shard mid-repair could drop the set below
	// k and turn a repairable object into a dead one.
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
	unpinAll := func() {
		for _, p := range pins {
			c.unpinHolders(p.id, p.holders)
		}
	}
	inner := done
	done = func(restored int, err error) {
		unpinAll()
		inner(restored, err)
	}
	pinsLeft := len(pins)
	n := len(m.Chunks)
	shards := make([][]byte, n)
	fetchAll := func() {
		remaining := n
		for i := range m.Chunks {
			i := i
			c.fetchChunk(m.Chunks[i], pl.Holders[m.Chunks[i]], 0, func(data []byte, ok bool) {
				if ok {
					shards[i] = data
				}
				remaining--
				if remaining > 0 {
					return
				}
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
				pending := 0
				finished := false
				check := func() {
					if pending == 0 && !finished {
						finished = true
						var err error
						if restored < lost {
							err = fmt.Errorf("storage: restored %d/%d lost shards", restored, lost)
						}
						done(restored, err)
					}
				}
				// Shards of one object must sit on distinct providers:
				// co-locating them would let one death erase several shards.
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
					pending++
					ch := NewChunk(shards[si])
					c.placeOnFresh(ch, pl, pool, occupied, 1, func(placed int) {
						restored += placed
						c.obsRepairChunks.Add(int64(placed))
						c.obsRepairBytes.Add(int64(placed * len(ch.Data)))
						for _, h := range pl.Holders[ch.ID] {
							occupied[h.Node] = true
						}
						pending--
						check()
					})
				}
				check()
			})
		}
	}
	// Kick off: pin every surviving shard holder, then fetch.
	if !c.pinRepairs || len(pins) == 0 {
		fetchAll()
		return
	}
	for _, p := range pins {
		p := p
		c.pinHolders(p.id, p.holders, func() {
			pinsLeft--
			if pinsLeft == 0 {
				fetchAll()
			}
		})
	}
}

// placeOnFresh puts a chunk on up to want providers that do not already
// hold it (nor appear in exclude), trying pool members in a random order so
// repeated repairs spread load instead of piling every restored chunk onto
// the first live pool member.
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

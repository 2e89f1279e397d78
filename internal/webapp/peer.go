package webapp

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// Tracker is a rendezvous service mapping site → seeders (ZeroNet uses
// BitTorrent trackers alongside DHT lookup). It is an optimization, not an
// authority: all content is verified against the signed manifest, so a
// malicious tracker can at worst deny service.
type Tracker struct {
	rpc     *simnet.RPCNode
	seeders map[cryptoutil.Hash][]simnet.NodeID
}

const (
	methodAnnounce = "web.announce"
	methodPeers    = "web.peers"
	methodBlob     = "web.blob"
	methodManifest = "web.manifest"
)

type announceReq struct {
	Site   cryptoutil.Hash
	Seeder simnet.NodeID
}

type peersResp struct {
	Seeders []simnet.NodeID
}

// NewTracker starts a tracker on node, serving announces and peer lookups.
func NewTracker(node *simnet.Node) *Tracker {
	t := &Tracker{rpc: simnet.NewRPCNode(node), seeders: map[cryptoutil.Hash][]simnet.NodeID{}}
	t.rpc.Serve(methodAnnounce, t.onAnnounce)
	t.rpc.Serve(methodPeers, t.onPeers)
	return t
}

// Node returns the tracker's simnet node.
func (t *Tracker) Node() *simnet.Node { return t.rpc.Node() }

// NumSeeders returns how many seeders a site has announced.
func (t *Tracker) NumSeeders(site cryptoutil.Hash) int { return len(t.seeders[site]) }

func (t *Tracker) onAnnounce(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(announceReq)
	if !ok {
		return false, 8
	}
	for _, s := range t.seeders[r.Site] { //determinism:ok ranges one site's seeder slice
		if s == r.Seeder {
			return true, 8
		}
	}
	t.seeders[r.Site] = append(t.seeders[r.Site], r.Seeder)
	return true, 8
}

func (t *Tracker) onPeers(from simnet.NodeID, req any) (any, int) {
	site, ok := req.(cryptoutil.Hash)
	if !ok {
		return peersResp{}, 8
	}
	out := append([]simnet.NodeID{}, t.seeders[site]...)
	return peersResp{Seeders: out}, 16 + 8*len(out)
}

// Peer is one participant in the hostless web: it can publish sites it
// owns, visit (fetch + verify) other sites, and seed everything it has
// fetched. It keeps a DHT peer for manifest resolution.
type Peer struct {
	rpc     simnet.Caller // resil.Wrap'd: manifest/blob/tracker fetches ride the resilience layer
	dht     *dht.Peer
	tracker simnet.NodeID
	timeout time.Duration
	// sites maps site address → newest verified manifest.
	sites map[cryptoutil.Hash]*Manifest
	blobs map[cryptoutil.Hash][]byte
	// BlobServes counts blobs served to other visitors (seeding load);
	// BlobBytesServed is the same load in payload bytes, which is what
	// origin-load-share comparisons (X18) weigh by.
	BlobServes      int
	BlobBytesServed int64

	// Observability: swarm-wide visit outcomes and seeding load; each
	// Visit is spanned as webapp.visit.duration_s.
	obsVisitOK   *obs.Counter
	obsVisitFail *obs.Counter
	obsServes    *obs.Counter
}

// PeerConfig bundles a web peer's client-side robustness layer. The zero
// value is the historical peer: fixed-timeout fetches.
type PeerConfig struct {
	// Resilience tunes the peer's own fetches (manifest, blob, and tracker
	// RPCs). The DHT leg of a Visit is tuned separately through
	// dht.Config.Resilience.
	Resilience resil.Config
}

// NewPeer creates a web peer on node, joined to the given DHT (the caller
// bootstraps the DHT peer) and tracker.
func NewPeer(node *simnet.Node, d *dht.Peer, tracker simnet.NodeID, timeout time.Duration, cfg PeerConfig) *Peer {
	rpc := simnet.NewRPCNode(node)
	p := &Peer{
		rpc:          resil.Wrap(rpc, cfg.Resilience),
		dht:          d,
		tracker:      tracker,
		timeout:      timeout,
		sites:        map[cryptoutil.Hash]*Manifest{},
		blobs:        map[cryptoutil.Hash][]byte{},
		obsVisitOK:   node.Obs().Counter("webapp.visit.ok"),
		obsVisitFail: node.Obs().Counter("webapp.visit.fail"),
		obsServes:    node.Obs().Counter("webapp.blob.served"),
	}
	rpc.Serve(methodBlob, p.onBlob)
	rpc.Serve(methodManifest, p.onManifest)
	// Re-announce everything after a restart so the swarm finds us again,
	// in site order: each send draws its call id and link loss/jitter, so
	// map order would bind those draws to a different site on every run.
	node.OnUp(func() {
		order := make([]cryptoutil.Hash, 0, len(p.sites))
		for site := range p.sites { //determinism:ok sorted below
			order = append(order, site)
		}
		sort.Slice(order, func(i, j int) bool { return bytes.Compare(order[i][:], order[j][:]) < 0 })
		for _, site := range order {
			p.announce(site)
		}
	})
	return p
}

// Node returns the peer's simnet node.
func (p *Peer) Node() *simnet.Node { return p.rpc.Node() }

// DHT returns the peer's DHT participant.
func (p *Peer) DHT() *dht.Peer { return p.dht }

// Manifest returns the peer's newest verified manifest for a site.
func (p *Peer) Manifest(site cryptoutil.Hash) (*Manifest, bool) {
	m, ok := p.sites[site]
	return m, ok
}

// FileContent returns a fetched file's bytes for a site path.
func (p *Peer) FileContent(site cryptoutil.Hash, path string) ([]byte, bool) {
	m, ok := p.sites[site]
	if !ok {
		return nil, false
	}
	fe, ok := m.File(path)
	if !ok {
		return nil, false
	}
	data, ok := p.blobs[fe.ID]
	return data, ok
}

func (p *Peer) onBlob(from simnet.NodeID, req any) (any, int) {
	id, ok := req.(cryptoutil.Hash)
	if !ok {
		return getBlobResp{}, 8
	}
	data, have := p.blobs[id]
	if !have {
		return getBlobResp{}, 8
	}
	p.BlobServes++
	p.BlobBytesServed += int64(len(data))
	p.obsServes.Inc()
	return getBlobResp{Data: data, OK: true}, 16 + len(data)
}

func (p *Peer) onManifest(from simnet.NodeID, req any) (any, int) {
	site, ok := req.(cryptoutil.Hash)
	if !ok {
		return getBlobResp{}, 8
	}
	m, have := p.sites[site]
	if !have {
		return getBlobResp{}, 8
	}
	enc := m.Encode()
	return getBlobResp{Data: enc, OK: true}, 16 + len(enc)
}

type getBlobResp struct {
	Data []byte
	OK   bool
}

// Publish signs and publishes a site version: blobs are stored locally,
// the manifest goes into the DHT, and the peer announces itself as a
// seeder. done receives the manifest.
func (p *Peer) Publish(owner *cryptoutil.KeyPair, version uint64, files map[string][]byte, forkOf cryptoutil.Hash, done func(*Manifest)) {
	m, blobs := SignManifest(owner, version, files, forkOf)
	p.adopt(m, blobs)
	p.dht.Put(manifestKey(m.Site), m.Encode(), func(int) {
		p.announce(m.Site)
		if done != nil {
			done(m)
		}
	})
}

// adopt installs a verified manifest + blobs locally.
func (p *Peer) adopt(m *Manifest, blobs map[cryptoutil.Hash][]byte) {
	p.sites[m.Site] = m
	for id, data := range blobs { //determinism:ok copies into a map
		p.blobs[id] = data
	}
}

func (p *Peer) announce(site cryptoutil.Hash) {
	req := announceReq{Site: site, Seeder: p.rpc.Node().ID()}
	p.rpc.Call(p.tracker, methodAnnounce, req, 72, p.timeout, func(any, error) {})
}

// Visit resolves a site: manifest from the DHT (falling back to asking the
// site's seeders directly — every manifest is self-verifying, so any
// untrusted copy will do), blobs from seeders, full verification, then the
// visitor seeds the site itself. done receives the assembled files or an
// error.
func (p *Peer) Visit(site cryptoutil.Hash, done func(files map[string][]byte, err error)) {
	node := p.rpc.Node()
	span := node.Obs().StartSpan("webapp.visit.duration_s", node.Now())
	inner := done
	done = func(files map[string][]byte, err error) {
		span.End(node.Now())
		if err == nil {
			p.obsVisitOK.Inc()
		} else {
			p.obsVisitFail.Inc()
		}
		inner(files, err)
	}
	p.dht.Get(manifestKey(site), func(value []byte, ok bool) {
		if ok {
			m, err := DecodeManifest(value)
			if err != nil {
				done(nil, err)
				return
			}
			p.fetchBundle(m, site, done)
			return
		}
		// DHT miss (churned-out record, partition): the swarm itself is an
		// alternative manifest source.
		p.rpc.Call(p.tracker, methodPeers, site, 40, p.timeout, func(resp any, err error) {
			pr, ok := resp.(peersResp)
			if err != nil || !ok || len(pr.Seeders) == 0 {
				done(nil, fmt.Errorf("webapp: site %s not found in DHT or swarm", site.Short()))
				return
			}
			p.fetchManifestFrom(site, p.shuffled(pr.Seeders), 0, done)
		})
	})
}

// fetchManifestFrom asks seeders for the site manifest until one supplies
// a copy that verifies, then fetches the bundle.
func (p *Peer) fetchManifestFrom(site cryptoutil.Hash, seeders []simnet.NodeID, i int, done func(map[string][]byte, error)) {
	if i >= len(seeders) {
		done(nil, fmt.Errorf("webapp: no seeder supplied a manifest for %s", site.Short()))
		return
	}
	if seeders[i] == p.rpc.Node().ID() {
		p.fetchManifestFrom(site, seeders, i+1, done)
		return
	}
	p.rpc.Call(seeders[i], methodManifest, site, 40, p.timeout, func(resp any, err error) {
		if err == nil {
			if r, ok := resp.(getBlobResp); ok && r.OK {
				if m, derr := DecodeManifest(r.Data); derr == nil && m.Site == site && m.Verify() {
					p.fetchBundle(m, site, done)
					return
				}
			}
		}
		p.fetchManifestFrom(site, seeders, i+1, done)
	})
}

// fetchBundle validates the manifest and pulls its blobs from the swarm.
func (p *Peer) fetchBundle(m *Manifest, site cryptoutil.Hash, done func(map[string][]byte, error)) {
	if m.Site != site || !m.Verify() {
		done(nil, fmt.Errorf("webapp: manifest for %s fails verification", site.Short()))
		return
	}
	if cur, ok := p.sites[site]; ok && cur.Version >= m.Version {
		m = cur // already have an equal or newer version
	}
	req := m
	p.rpc.Call(p.tracker, methodPeers, site, 40, p.timeout, func(resp any, err error) {
		if err != nil {
			done(nil, fmt.Errorf("webapp: tracker unreachable: %w", err))
			return
		}
		pr, ok := resp.(peersResp)
		if !ok || len(pr.Seeders) == 0 {
			done(nil, fmt.Errorf("webapp: no seeders for %s", site.Short()))
			return
		}
		p.fetchBlobs(req, p.shuffled(pr.Seeders), done)
	})
}

func (p *Peer) fetchBlobs(m *Manifest, seeders []simnet.NodeID, done func(map[string][]byte, error)) {
	files := map[string][]byte{}
	blobs := map[cryptoutil.Hash][]byte{}
	pending := 0
	failed := 0
	finished := false
	check := func() {
		if pending != 0 || finished {
			return
		}
		finished = true
		if failed > 0 {
			done(nil, fmt.Errorf("webapp: %d blobs unavailable", failed))
			return
		}
		p.adopt(m, blobs)
		p.announce(m.Site) // visitor becomes seeder
		done(files, nil)
	}
	for _, fe := range m.Files {
		if data, ok := p.blobs[fe.ID]; ok {
			files[fe.Path] = data
			blobs[fe.ID] = data
			continue
		}
		pending++
		fe := fe
		p.fetchBlobFrom(fe.ID, seeders, 0, func(data []byte, ok bool) {
			pending--
			if !ok {
				failed++
			} else {
				files[fe.Path] = data
				blobs[fe.ID] = data
			}
			check()
		})
	}
	check()
}

// shuffled returns a randomly permuted copy of the seeder list so fetch
// load spreads across the swarm instead of hammering the first announcer
// (usually the author).
func (p *Peer) shuffled(seeders []simnet.NodeID) []simnet.NodeID {
	out := append([]simnet.NodeID{}, seeders...)
	rng := p.rpc.Node().Rand()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fetchBlobFrom tries seeders in order until one serves a blob matching
// the content address. Seeders are untrusted: a corrupt blob is skipped.
func (p *Peer) fetchBlobFrom(id cryptoutil.Hash, seeders []simnet.NodeID, i int, done func([]byte, bool)) {
	if i >= len(seeders) {
		done(nil, false)
		return
	}
	if seeders[i] == p.rpc.Node().ID() {
		p.fetchBlobFrom(id, seeders, i+1, done)
		return
	}
	p.rpc.Call(seeders[i], methodBlob, id, 40, p.timeout, func(resp any, err error) {
		if err == nil {
			if r, ok := resp.(getBlobResp); ok && r.OK && cryptoutil.SumHash(r.Data) == id {
				done(r.Data, true)
				return
			}
		}
		p.fetchBlobFrom(id, seeders, i+1, done)
	})
}

// Forget drops the peer's local copy of a site — its manifest and any
// blobs no other followed site still references — so the next Visit
// re-fetches everything over the network. Workload harnesses use it to
// model a fresh user arriving on a device that happened to serve an
// earlier one: without it, a revisit is a pure cache hit and measures
// nothing. The tracker is not informed (it has no unannounce); a seeder
// asked for a blob it no longer holds answers not-have and the fetcher
// fails over, exactly as with a restarted peer.
func (p *Peer) Forget(site cryptoutil.Hash) {
	m, ok := p.sites[site]
	if !ok {
		return
	}
	delete(p.sites, site)
	for _, fe := range m.Files {
		if !p.blobReferenced(fe.ID) {
			delete(p.blobs, fe.ID)
		}
	}
}

// blobReferenced reports whether any followed site still references a blob.
func (p *Peer) blobReferenced(id cryptoutil.Hash) bool {
	for _, m := range p.sites { //determinism:ok an existence test
		for _, fe := range m.Files {
			if fe.ID == id {
				return true
			}
		}
	}
	return false
}

// Refresh checks the DHT for a newer manifest version of a site the peer
// already follows and fetches changed blobs. done reports whether an
// update was applied.
func (p *Peer) Refresh(site cryptoutil.Hash, done func(updated bool, err error)) {
	cur, ok := p.sites[site]
	if !ok {
		done(false, fmt.Errorf("webapp: not following site %s", site.Short()))
		return
	}
	p.dht.Get(manifestKey(site), func(value []byte, found bool) {
		if !found {
			done(false, nil)
			return
		}
		m, err := DecodeManifest(value)
		if err != nil || !m.Verify() || m.Site != site {
			done(false, fmt.Errorf("webapp: invalid refreshed manifest"))
			return
		}
		if m.Version <= cur.Version {
			done(false, nil)
			return
		}
		p.rpc.Call(p.tracker, methodPeers, site, 40, p.timeout, func(resp any, err error) {
			pr, ok := resp.(peersResp)
			if err != nil || !ok {
				done(false, fmt.Errorf("webapp: tracker unreachable"))
				return
			}
			p.fetchBlobs(m, p.shuffled(pr.Seeders), func(files map[string][]byte, err error) {
				if err != nil {
					done(false, err)
					return
				}
				done(true, nil)
			})
		})
	})
}

// Fork publishes a new site owned by newOwner containing the current
// files of the source site (which this peer must have visited), recording
// provenance — Beaker's fork-and-modify flow. done receives the new
// manifest.
func (p *Peer) Fork(source cryptoutil.Hash, newOwner *cryptoutil.KeyPair, modify func(files map[string][]byte), done func(*Manifest, error)) {
	src, ok := p.sites[source]
	if !ok {
		done(nil, fmt.Errorf("webapp: cannot fork unvisited site %s", source.Short()))
		return
	}
	files := map[string][]byte{}
	for _, fe := range src.Files {
		data, ok := p.blobs[fe.ID]
		if !ok {
			done(nil, fmt.Errorf("webapp: missing blob for %s", fe.Path))
			return
		}
		files[fe.Path] = append([]byte{}, data...)
	}
	if modify != nil {
		modify(files)
	}
	p.Publish(newOwner, 1, files, source, func(m *Manifest) { done(m, nil) })
}

// Merge publishes a new version of the owner's site that absorbs the
// files of a fork this peer has visited (Beaker's merge flow). done
// receives the merged manifest.
func (p *Peer) Merge(owner *cryptoutil.KeyPair, fork cryptoutil.Hash, done func(*Manifest, error)) {
	own := owner.Fingerprint()
	cur, ok := p.sites[own]
	if !ok {
		done(nil, fmt.Errorf("webapp: owner site not present"))
		return
	}
	forkM, ok := p.sites[fork]
	if !ok {
		done(nil, fmt.Errorf("webapp: fork %s not visited", fork.Short()))
		return
	}
	files := map[string][]byte{}
	for _, fe := range cur.Files {
		if data, ok := p.blobs[fe.ID]; ok {
			files[fe.Path] = data
		}
	}
	for _, fe := range forkM.Files {
		if data, ok := p.blobs[fe.ID]; ok {
			files[fe.Path] = data // fork wins on conflicts
		}
	}
	p.Publish(owner, cur.Version+1, files, cryptoutil.Hash{}, func(m *Manifest) { done(m, nil) })
}

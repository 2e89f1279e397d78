package replic

import (
	"unsafe"

	"repro/internal/cryptoutil"
	"repro/internal/overload"
	"repro/internal/pool"
	"repro/internal/simnet"
)

// RPC method names. The directory serves announce/release/holders;
// providers serve get/advert/push.
const (
	methodAnnounce = "replic.announce"
	methodRelease  = "replic.release"
	methodHolders  = "replic.holders"
	methodGet      = "replic.get"
	methodAdvert   = "replic.advert"
	methodPush     = "replic.push"
)

// Seq orders one provider's announce/release stream. The resilience
// layer retries lost control calls, so the directory can observe an old
// announce AFTER approving a newer release; without ordering that
// resurrects a registration for a replica the holder already dropped — a
// phantom holder that never heals, because providers only release what
// they hold. Each provider stamps every announce/release with a
// monotonically increasing counter (retries reuse the stamp), and the
// directory ignores anything older than what it has already applied.
type announceReq struct {
	Object cryptoutil.Hash
	Holder simnet.NodeID
	Origin bool
	Seq    uint64
}

type releaseReq struct {
	Object cryptoutil.Hash
	Holder simnet.NodeID
	Seq    uint64
}

// holdersResp is the directory's answer to a holders query. Answers are
// pooled: the receiver owns one until it releases it — a fetch when it is
// recycled, a provider's holders lookup once it has acted on the list. An
// answer that arrives after its call ended is dropped unread and left to
// the GC. The list is held as a pointer and 32-bit length and capacity, so
// that with its pool mark the answer still fits the 24-byte size class.
type holdersResp struct {
	ids  *simnet.NodeID
	n, c uint32
	pool.Mark
}

// Holders returns the answer's list, reused once the answer is released.
func (r *holdersResp) Holders() []simnet.NodeID { return unsafe.Slice(r.ids, r.c)[:r.n] }

func (r *holdersResp) set(s []simnet.NodeID) {
	r.ids, r.n, r.c = unsafe.SliceData(s), uint32(len(s)), uint32(cap(s))
}

var holdersPool = pool.New[holdersResp]("replic.holders", func(r *holdersResp) { r.n = 0 })

type advertReq struct {
	Object cryptoutil.Hash
	Rate   float64   // sender's local decayed rate, req/s
	Region []float64 // sender's per-region breakdown, req/s
}

type pushReq struct {
	Object cryptoutil.Hash
	Data   []byte
}

// getResp is a provider's answer to a get. It is never pooled: a provider
// builds one per stored object when it installs the object and serves that
// same immutable box to every requester, and every miss is answered with
// notFound.
type getResp struct {
	Data []byte
	OK   bool
}

var notFound = &getResp{}

// holderEntry is one replica registration. seq is the holder's own
// announce stamp — the fence against stale control messages.
type holderEntry struct {
	id     simnet.NodeID
	origin bool
	seq    uint64
}

// Directory is the replica rendezvous and the replica-floor authority: it
// maps each object to its current holder set (origin first, then in
// announce order) and arbitrates releases so the holder count never drops
// below the configured floor and a pinned origin is never released — the
// same role the tracker plays for webapp swarms, and like the tracker it
// is an availability optimization plus a safety interlock, not a data
// authority (content is fetched from holders, not from it).
//
// Run it on an anchor node: the fault battery's scenario contract already
// exempts anchors from crashes, exactly as X18 exempts its tracker.
type Directory struct {
	rpc     *simnet.RPCNode
	floorK  int
	holders map[cryptoutil.Hash][]holderEntry
	// released tombstones approved releases by (object, holder) → release
	// seq, so a late retry of an older announce cannot resurrect the
	// registration. A genuinely new announce (fresh seq from a re-push or a
	// restart) supersedes the tombstone.
	released map[cryptoutil.Hash]map[simnet.NodeID]uint64
}

// NewDirectoryWith starts a directory on node, enforcing the given replica
// floor on releases, with server-side overload control. Every directory
// endpoint is control-plane — announce/release/holders keep the replica
// map honest — so all three ride the priority lane and
// none sit behind the bulk queue; the overload layer's contribution here
// is admission bounding and the control-lane uplink stamp. A zero ocfg
// is a pure passthrough.
func NewDirectoryWith(node *simnet.Node, floorK int, ocfg overload.Config) *Directory {
	if floorK < 1 {
		floorK = 1
	}
	d := &Directory{
		rpc:      simnet.NewRPCNode(node),
		floorK:   floorK,
		holders:  map[cryptoutil.Hash][]holderEntry{},
		released: map[cryptoutil.Hash]map[simnet.NodeID]uint64{},
	}
	ov := overload.New(d.rpc, ocfg)
	ov.Control(methodAnnounce, d.onAnnounce)
	ov.Control(methodRelease, d.onRelease)
	ov.Control(methodHolders, d.onHolders)
	return d
}

// Node returns the directory's simnet node.
//
//reach:experiments' conformance tests check fault plans spare the directory
func (d *Directory) Node() *simnet.Node { return d.rpc.Node() }

func (d *Directory) onAnnounce(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(announceReq)
	if !ok {
		return false, 8
	}
	hs := d.holders[r.Object]
	for i := range hs {
		if hs[i].id == r.Holder {
			hs[i].origin = hs[i].origin || r.Origin
			if r.Seq > hs[i].seq {
				hs[i].seq = r.Seq
			}
			return true, 8
		}
	}
	if tomb, ok := d.released[r.Object][r.Holder]; ok {
		if r.Seq <= tomb {
			// Stale: this announce predates an approved release — the
			// holder no longer has the replica.
			return false, 8
		}
		delete(d.released[r.Object], r.Holder)
	}
	e := holderEntry{id: r.Holder, origin: r.Origin, seq: r.Seq}
	if r.Origin {
		// Origins list first: directory-order fetching (the static arm's
		// client policy) then matches the single-origin feudal shape.
		d.holders[r.Object] = append([]holderEntry{e}, hs...)
	} else {
		d.holders[r.Object] = append(hs, e)
	}
	return true, 8
}

// onRelease arbitrates a holder's offer to drop its replica: approved
// only if the holder is registered, is not the origin, and the remaining
// count stays at or above the floor. A holder no longer registered gets
// an approval too — dropping a replica the directory already forgot is
// always safe.
func (d *Directory) onRelease(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(releaseReq)
	if !ok {
		return false, 8
	}
	hs := d.holders[r.Object]
	for i := range hs {
		if hs[i].id != r.Holder {
			continue
		}
		if r.Seq < hs[i].seq {
			// Stale: the registration is newer than this release offer (the
			// holder re-announced since) — the decision no longer applies.
			return false, 8
		}
		if hs[i].origin || len(hs) <= d.floorK {
			return false, 8
		}
		d.holders[r.Object] = append(hs[:i], hs[i+1:]...)
		d.tombstone(r.Object, r.Holder, r.Seq)
		return true, 8
	}
	d.tombstone(r.Object, r.Holder, r.Seq)
	return true, 8
}

// tombstone records an approved release so older announces stay dead.
func (d *Directory) tombstone(obj cryptoutil.Hash, holder simnet.NodeID, seq uint64) {
	m := d.released[obj]
	if m == nil {
		m = map[simnet.NodeID]uint64{}
		d.released[obj] = m
	}
	if cur, ok := m[holder]; !ok || seq > cur {
		m[holder] = seq
	}
}

func (d *Directory) onHolders(from simnet.NodeID, req any) (any, int) {
	hr := holdersPool.Get()
	obj, ok := req.(cryptoutil.Hash)
	if !ok {
		return hr, 8
	}
	s := hr.Holders()
	for _, h := range d.holders[obj] {
		s = append(s, h.id)
	}
	hr.set(s)
	return hr, 16 + 8*len(s)
}

// NumHolders returns the registered holder count for an object
// (in-process inspection for experiments and tests).
func (d *Directory) NumHolders(obj cryptoutil.Hash) int { return len(d.holders[obj]) }

// TotalReplicas returns the registered replica count across all objects —
// the X19 replica-count timeline samples exactly this.
func (d *Directory) TotalReplicas() int {
	n := 0
	for _, hs := range d.holders { // determinism:ok integer sum, order-independent
		n += len(hs)
	}
	return n
}

//go:build !race

// Allocation-budget tests: pin the steady-state allocation cost of the
// hot paths the X15 scale sweep leans on — raw message delivery, DHT
// lookups and stores, and gossip publish rounds — and of the ledger's hashing paths,
// which every chain-backed experiment runs per transaction per replica. The substrate Send path must be
// exactly allocation-free (events and RPC envelopes recycle through
// pools); the protocol paths carry small, pinned budgets with headroom.
// A failure here means a regression re-introduced per-message garbage that
// 10k-node populations cannot afford. `make allocs` (part of `make ci`)
// runs exactly these tests. The race detector makes sync.Pool drop a share
// of what it is given, and the pooled paths then allocate afresh, so these
// gates build only without it.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/storage/chunker"
	"repro/internal/workload"
)

// TestAllocBytesPerNode pins the per-node memory cost of constructing a
// 10k-node network with the RPC layer attached — the footprint that
// decides whether the huge tiers (100k and 1M nodes, see the huge rows of
// TestScaleMatrix and `feudalism scale`) fit in memory. Measured 248 B/node
// single-heap and 272 B/node on 64 shards (go1.24 amd64): a Node is 120 B,
// in the 128 B size class, with its cold fields behind one pointer, its
// private RNG stream built on first use and its link profile shared with
// its neighbours. The ceiling leaves ~90% headroom; at the ceiling, 1M
// nodes cost ≈0.5 GB before any traffic, which is the budget
// EXPERIMENTS.md quotes.
func TestAllocBytesPerNode(t *testing.T) {
	const n = 10_000
	const ceiling = 512.0 // bytes per node, network + node + RPC layer
	measure := func(build func() any) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / n
		runtime.KeepAlive(keep)
		return perNode
	}
	engines := map[string]func() any{
		"single-heap": func() any {
			nw := simnet.New(7)
			for i := 0; i < n; i++ {
				simnet.NewRPCNode(nw.AddNode())
			}
			return nw
		},
		"sharded": func() any {
			nw := simnet.NewWithConfig(simnet.NetworkConfig{Seed: 7, Shards: 64})
			for i := 0; i < n; i++ {
				simnet.NewRPCNode(nw.AddNode())
			}
			return nw
		},
	}
	for name, build := range engines {
		got := measure(build)
		t.Logf("%s engine: %.0f B/node at construction", name, got)
		if got > ceiling {
			t.Errorf("%s engine: %.0f B/node at construction, ceiling %.0f", name, got, ceiling)
		}
	}
}

// TestAllocSendZero pins the raw substrate Send+deliver cycle at zero
// allocations per message in steady state.
func TestAllocSendZero(t *testing.T) {
	nw := simnet.New(7)
	src, dst := nw.AddNode(), nw.AddNode()
	dst.Handle("alloc.ping", func(simnet.Message) {})
	var payload any = struct{}{} // zero-size: boxing never allocates
	send := func() {
		src.Send(dst.ID(), "alloc.ping", payload, 16)
		nw.RunAll()
	}
	for i := 0; i < 100; i++ {
		send() // warm the event/delivery pools and the latency histogram
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Errorf("Send+deliver allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestAllocClosureTimerZero pins a closure event at zero allocations on
// both engines: Network.After and Node.After box the func into the event's
// argument, and a func value is pointer-shaped, so the box is free.
func TestAllocClosureTimerZero(t *testing.T) {
	for _, cfg := range []simnet.NetworkConfig{{Seed: 7}, {Seed: 7, Shards: 2, Workers: 1}} {
		nw := simnet.NewWithConfig(cfg)
		n := nw.AddNode()
		fired := 0
		fire := func() { fired++ } // built once, outside the measured op
		timer := func() {
			nw.After(time.Millisecond, fire)
			n.After(time.Millisecond, fire)
			nw.RunAll()
		}
		for i := 0; i < 100; i++ {
			timer() // warm the event pools
		}
		if avg := testing.AllocsPerRun(200, timer); avg != 0 {
			t.Errorf("%+v: two closure timers allocate %.2f/op, want 0", cfg, avg)
		}
		if fired != 2*(100+201) {
			t.Errorf("%+v: %d closure timers fired, want %d", cfg, fired, 2*(100+201))
		}
	}
}

// TestAllocRPCCall pins the full RPC round trip (call, request, reply,
// timeout timer) at zero allocations: envelopes come from a pool and
// pending-call records from their shard's free list, the timeout is a
// closure-free event, and the caller's done closure is adapted to a
// Completion without boxing — a func value is pointer-shaped.
func TestAllocRPCCall(t *testing.T) {
	const budget = 0.0
	nw := simnet.New(8)
	a, b := simnet.NewRPCNode(nw.AddNode()), simnet.NewRPCNode(nw.AddNode())
	b.Serve("alloc.echo", func(from simnet.NodeID, req any) (any, int) { return req, 8 })
	var payload any = struct{}{}
	call := func() {
		a.Call(b.Node().ID(), "alloc.echo", payload, 16, 5*time.Second, func(any, error) {})
		nw.RunAll()
	}
	for i := 0; i < 100; i++ {
		call()
	}
	if avg := testing.AllocsPerRun(200, call); avg > budget {
		t.Errorf("RPC round trip allocates %.2f/op, want %.0f", avg, budget)
	}
}

// dhtAllocNet is a settled 40-peer network (K = 8) holding one value.
func dhtAllocNet() (*simnet.Network, []*dht.Peer, dht.Key) {
	nw := simnet.New(9)
	const n = 40
	peers := make([]*dht.Peer, n)
	for i := range peers {
		peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, dht.Config{K: 8})
	}
	for i := 1; i < n; i++ {
		p := peers[i]
		nw.After(time.Duration(i)*50*time.Millisecond, func() {
			p.Bootstrap(peers[0].Contact(), nil)
		})
	}
	nw.RunAll()
	key := cryptoutil.SumHash([]byte("alloc-key"))
	peers[0].Put(key, []byte{1}, nil)
	nw.RunAll()
	return nw, peers, key
}

// TestAllocDHTLookup pins a full iterative Get (α-parallel lookup with
// per-step routing-table selection) on a settled 40-peer network at one
// allocation: the lookup state, which stays GC-owned because its request
// is sent by pointer with every query. The shortlist, the α query records
// and the result come from one pooled buffer, the table walk allocates
// nothing, Get hands its callback to the lookup as it is, and responders
// fill pooled reply buffers that the lookup releases once merged
// (measured 1; 5 with per-lookup buffers and a wrapper closure, 8 with a
// completion closure per query, 32 before the distance-ordered walk and
// pooled replies).
func TestAllocDHTLookup(t *testing.T) {
	const budget = 1.0
	nw, peers, key := dhtAllocNet()
	p := peers[len(peers)-1]
	get := func() {
		p.Get(key, func([]byte, bool) {})
		nw.RunAll()
	}
	for i := 0; i < 50; i++ {
		get()
	}
	avg := testing.AllocsPerRun(100, get)
	t.Logf("DHT Get: %.1f allocs/op (budget %.0f)", avg, budget)
	if avg > budget {
		t.Errorf("DHT Get allocates %.1f/op, budget %.0f", avg, budget)
	}
}

// TestAllocDHTPut pins a steady-state Put — the lookup for the key, then a
// store to each of the K closest peers — at two allocations: the lookup
// state and the putOp, which completes every store and carries the one
// request they share (measured 2; K closures and K boxed requests more
// when each store had its own).
func TestAllocDHTPut(t *testing.T) {
	const budget = 2.0
	nw, peers, key := dhtAllocNet()
	p := peers[len(peers)-1]
	value := []byte{2}
	stored := 0
	done := func(n int) { stored = n }
	put := func() {
		p.Put(key, value, done)
		nw.RunAll()
	}
	for i := 0; i < 50; i++ {
		put()
	}
	if stored != 8 {
		t.Fatalf("a Put reached %d peers, want K = 8", stored)
	}
	avg := testing.AllocsPerRun(100, put)
	t.Logf("DHT Put: %.1f allocs/op (budget %.0f)", avg, budget)
	if avg > budget {
		t.Errorf("DHT Put allocates %.1f/op, budget %.0f", avg, budget)
	}
}

// TestAllocGossipRound pins one publish round (flood to fanout peers plus
// the epidemic relay across a 30-member mesh). The published item is
// allocated once and every hop carries and stores that pointer, so the
// budget covers that allocation plus the amortized growth of 30 logs and
// slot tables; peer sampling itself is allocation-free since the partial
// Fisher-Yates reuses the member's index buffer.
func TestAllocGossipRound(t *testing.T) {
	const budget = 8.0
	nw := simnet.New(10)
	const n = 30
	members := make([]*gossip.Member, n)
	ids := make([]simnet.NodeID, n)
	for i := range members {
		members[i] = gossip.NewMember(nw.AddNode(), gossip.Config{Fanout: 3})
		ids[i] = members[i].Node().ID()
	}
	for i, m := range members {
		peers := make([]simnet.NodeID, 0, n-1)
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		m.SetPeers(peers)
	}
	seq := 0
	publish := func() {
		seq++
		data := fmt.Sprintf("alloc-item-%d", seq)
		members[seq%n].Publish(gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: nil, Size: 64})
		nw.RunAll()
	}
	for i := 0; i < 50; i++ {
		publish()
	}
	avg := testing.AllocsPerRun(100, publish)
	t.Logf("gossip publish round: %.1f allocs/op across %d members (budget %.0f)", avg, n, budget)
	if avg > budget {
		t.Errorf("gossip publish round allocates %.1f/op, budget %.0f", avg, budget)
	}
}

// TestAllocGossipAntiEntropyInSync pins the anti-entropy round that finds
// nothing to repair — at 100k members, 96 % of all rounds: two members
// holding the same 16 items exchange digests on their own timers. A round
// allocates nothing (the digest is a view of the sender's log, built once
// per log length and sent again while the log is unchanged; the diff runs
// on a stack bitset), and it is one message: an in-sync receiver sends no
// delta. Measured 0.0101: 4 allocations in 396 rounds, none of them the
// round's own (each is the delivery-latency histogram covering a new
// bucket range), so a round that allocated anything at all would read 1
// or more.
func TestAllocGossipAntiEntropyInSync(t *testing.T) {
	const budget = 0.02
	const period = 10 * time.Second
	nw := simnet.New(11)
	a := gossip.NewMember(nw.AddNode(), gossip.Config{Fanout: 3, AntiEntropyInterval: period})
	b := gossip.NewMember(nw.AddNode(), gossip.Config{Fanout: 3, AntiEntropyInterval: period})
	a.SetPeers([]simnet.NodeID{b.Node().ID()})
	b.SetPeers([]simnet.NodeID{a.Node().ID()})
	for i := 0; i < 16; i++ {
		data := fmt.Sprintf("alloc-held-%d", i)
		a.Publish(gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Size: 64})
	}
	nw.Run(10 * period) // pushes land, timers and pools warm up
	if a.Len() != 16 || b.Len() != 16 {
		t.Fatalf("members hold %d and %d items, want 16 each", a.Len(), b.Len())
	}
	rounds := nw.Obs().Counter("gossip.antientropy.rounds")
	r0, sent0 := rounds.Value(), nw.Trace().Sent
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw.Run(nw.Now() + 200*period)
	runtime.ReadMemStats(&after)
	n := rounds.Value() - r0
	if n < 300 {
		t.Fatalf("%d rounds in 200 periods of two members, want about 400", n)
	}
	if sent := nw.Trace().Sent - sent0; sent != n {
		t.Errorf("%d messages for %d in-sync rounds: a delta was sent", sent, n)
	}
	avg := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("in-sync anti-entropy round: %.4f allocs (budget %.2f)", avg, budget)
	if avg > budget {
		t.Errorf("in-sync anti-entropy round allocates %.4f, budget %.2f", avg, budget)
	}
}

// TestAllocGossipMemberBytes pins what a gossip member costs once it holds
// 16 items, the holding of every member at the end of the gossip_sharded
// benchmark: 10k members on nodes built beforehand, each publishing 16
// items with no peers, measured as TestAllocBytesPerNode measures a node
// (all bytes allocated, growth included). 1,024 B of it are the items
// themselves, 16 in the 64 B size class, since each Publish allocates its
// item. Measured 2,096 B/member (go1.24 amd64; 1,544 B on 386); it was
// 3,992 B when the ID index was a Go map, which at 16 items grows into a
// swiss table of about 1 kB. The ceiling leaves ~25 % headroom over the
// slot table and stays well under the map.
func TestAllocGossipMemberBytes(t *testing.T) {
	const n = 10_000
	const ceiling = 2600.0 // bytes per member holding 16 items, items included
	nw := simnet.New(12)
	nodes := make([]*simnet.Node, n)
	for i := range nodes {
		nodes[i] = nw.AddNode()
	}
	ids := make([]cryptoutil.Hash, 16)
	for i := range ids {
		ids[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("member-bytes-%d", i)))
	}
	members := make([]*gossip.Member, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, node := range nodes {
		m := gossip.NewMember(node, gossip.Config{Fanout: 3})
		for _, id := range ids {
			m.Publish(gossip.Item{ID: id, Size: 64})
		}
		members[i] = m
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(members)
	if members[n-1].Len() != len(ids) {
		t.Fatalf("a member holds %d items, want %d", members[n-1].Len(), len(ids))
	}
	perMember := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("gossip member holding 16 items: %.0f B (ceiling %.0f)", perMember, ceiling)
	if perMember > ceiling {
		t.Errorf("a gossip member holding 16 items costs %.0f B, ceiling %.0f", perMember, ceiling)
	}
}

// TestAllocChunkerSplit pins content-defined chunking at zero
// allocations per Split on a reused Chunker: the fingerprint tables are
// built once in New, the window lives in the struct, and chunks are
// subslices of the input. Per-upload garbage on the chunking hot path
// would dominate large-file uploads.
func TestAllocChunkerSplit(t *testing.T) {
	ck, err := chunker.New(chunker.Defaults(1024))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64<<10)
	for i := range data {
		// uint32 keeps the constant in range on 32-bit targets; the low
		// byte is the same as with a 64-bit int.
		data[i] = byte(uint32(i)*2654435761 + uint32(i)>>8)
	}
	sink := 0
	split := func() {
		ck.Split(data, func(chunk []byte) { sink += len(chunk) })
	}
	split() // warm: nothing to warm, but keep parity with the other budgets
	if avg := testing.AllocsPerRun(100, split); avg != 0 {
		t.Errorf("Chunker.Split allocates %.2f/op in steady state, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("split emitted nothing")
	}
}

// TestAllocTieredStore pins the localstore hot paths: a steady-state Get
// must be allocation-free in both tiers, and a dedup-hit Put (the common
// case under overlapping uploads) must not copy or allocate either.
func TestAllocTieredStore(t *testing.T) {
	ls := storage.NewLocalStore(storage.LocalStoreConfig{Capacity: 1 << 20, MemCapacity: 8 << 10})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	id := cryptoutil.SumHash(data)
	if !ls.Put(id, data) {
		t.Fatal("put refused")
	}
	get := func() {
		if _, ok := ls.Get(id); !ok {
			t.Fatal("get failed")
		}
	}
	for i := 0; i < 10; i++ {
		get()
	}
	if avg := testing.AllocsPerRun(200, get); avg != 0 {
		t.Errorf("LocalStore.Get allocates %.2f/op in steady state, want 0", avg)
	}
	dupPut := func() {
		if !ls.Put(id, data) {
			t.Fatal("dedup put refused")
		}
	}
	for i := 0; i < 10; i++ {
		dupPut()
	}
	if avg := testing.AllocsPerRun(200, dupPut); avg != 0 {
		t.Errorf("dedup-hit Put allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestAllocZipfDrawZero pins a prepared Zipf sampler's Draw at exactly
// zero allocations per request — X18 draws one per generated request, so
// a million-user schedule cannot afford per-draw garbage.
func TestAllocZipfDrawZero(t *testing.T) {
	z := workload.NewZipf(1024, 1.1)
	rng := simnet.SaltedRand(9, 0xA110C)
	sink := 0
	if avg := testing.AllocsPerRun(1000, func() { sink += z.Draw(rng) }); avg != 0 {
		t.Errorf("Zipf.Draw allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// TestAllocFlashTickZero pins the flash-crowd tick — the time-dependent
// multiplier plus the composite hot-object draw — at zero allocations
// per op across the whole spike lifecycle (pre, ramp, peak, decay).
func TestAllocFlashTickZero(t *testing.T) {
	z := workload.NewZipf(256, 1.1)
	f := workload.Flash{Object: 255, Start: time.Minute, Ramp: time.Minute, Peak: 1000, Decay: time.Minute}
	h := workload.NewHotZipf(z, f)
	rng := simnet.SaltedRand(10, 0xF1A54)
	at := time.Duration(0)
	sink := 0.0
	tick := func() {
		at += 500 * time.Millisecond // walks through every spike phase
		sink += f.Multiplier(at)
		sink += h.WeightFactor(at)
		sink += float64(h.DrawAt(at, rng))
	}
	if avg := testing.AllocsPerRun(1000, tick); avg != 0 {
		t.Errorf("flash-crowd tick allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// TestAllocDemandObserveTickZero pins the adaptive-replication demand
// tracker's hot path — one Observe per served request plus the periodic
// Tick sweep — at exactly zero allocations in steady state. Entries are
// allocated once on an object's first observation; after that, lazy decay
// is pure float math and the Tick prune compacts slices in place. A
// provider under a flash crowd calls Observe per request, so per-op
// garbage here would dominate the X19 arms' allocation profile.
func TestAllocDemandObserveTickZero(t *testing.T) {
	const regions, objects = 4, 8
	d := replic.NewDemand(30*time.Second, regions)
	objs := make([]cryptoutil.Hash, objects)
	now := time.Duration(0)
	for i := range objs {
		objs[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("alloc-obj-%d", i)))
		d.Observe(objs[i], i%regions, now) // allocate every entry up front
	}
	i := 0
	op := func() {
		now += 50 * time.Millisecond
		d.Observe(objs[i%objects], i%regions, now)
		if i%100 == 0 {
			d.Tick(now)
		}
		i++
	}
	if avg := testing.AllocsPerRun(2000, op); avg != 0 {
		t.Errorf("Demand.Observe+Tick allocates %.2f/op in steady state, want 0", avg)
	}
	if d.Len() != objects {
		t.Fatalf("tracker pruned live entries: %d objects left, want %d", d.Len(), objects)
	}
}

// TestAllocDemandAdvertSteadyState pins advert handling: after a
// neighbor's first advertisement for an object (which inserts its entry),
// every re-advertisement replaces the snapshot in place — the per-region
// buffer is reused, so the steady-state budget is exactly zero. Holders
// re-advertise every tick while hot, making this the second-hottest
// replication path after Observe.
func TestAllocDemandAdvertSteadyState(t *testing.T) {
	const regions, holders = 4, 6
	d := replic.NewDemand(30*time.Second, regions)
	obj := cryptoutil.SumHash([]byte("alloc-advert-obj"))
	breakdown := []float64{1.5, 0.5, 2.0, 0.25}
	now := time.Duration(0)
	for h := 1; h <= holders; h++ {
		d.Advert(obj, simnet.NodeID(h), 2.0, breakdown, now) // first insert allocates
	}
	i := 0
	op := func() {
		now += 100 * time.Millisecond
		d.Advert(obj, simnet.NodeID(1+i%holders), 2.0, breakdown, now)
		i++
	}
	if avg := testing.AllocsPerRun(2000, op); avg != 0 {
		t.Errorf("Demand.Advert replace path allocates %.2f/op, want 0", avg)
	}
	// The aggregation read side shares the budget: RegionRates fills a
	// caller-owned buffer.
	dst := make([]float64, regions)
	sink := 0.0
	read := func() {
		d.RegionRates(obj, now, dst)
		sink += dst[0] + d.SwarmRate(obj, now)
	}
	if avg := testing.AllocsPerRun(2000, read); avg != 0 {
		t.Errorf("RegionRates+SwarmRate allocates %.2f/op, want 0", avg)
	}
	_ = sink
}

// TestAllocAdmitZero pins the overload layer's steady-state cost at
// exactly zero allocations on top of the plain RPC path: the deferred
// ReplyToken is a value, the admission decision touches only pooled
// state, the service-done completion is a closure-free AfterCall event,
// and shed replies (not exercised here — the queue stays empty) are
// pre-boxed. Measured as a delta against an identical unprotected
// endpoint in the same network, so envelope-pool and caller-side costs
// cancel out.
func TestAllocAdmitZero(t *testing.T) {
	nw := simnet.New(9)
	a := simnet.NewRPCNode(nw.AddNode())
	plain := simnet.NewRPCNode(nw.AddNode())
	prot := simnet.NewRPCNode(nw.AddNode())
	echo := func(from simnet.NodeID, req any) (any, int) { return req, 8 }
	plain.Serve("alloc.echo", echo)
	ov := overload.New(prot, overload.Config{Enabled: true, QueueLen: 64, Target: 100 * time.Millisecond,
		SLO: 500 * time.Millisecond, MinLimit: 1, MaxLimit: 32, RetryAfterBase: 500 * time.Millisecond})
	ov.Protect("alloc.echo", echo)
	var payload any = struct{}{}
	done := func(any, error) {}
	callTo := func(id simnet.NodeID) func() {
		return func() {
			a.Call(id, "alloc.echo", payload, 16, 5*time.Second, done)
			nw.RunAll()
		}
	}
	cPlain, cProt := callTo(plain.Node().ID()), callTo(prot.Node().ID())
	for i := 0; i < 100; i++ {
		cPlain()
		cProt()
	}
	base := testing.AllocsPerRun(200, cPlain)
	got := testing.AllocsPerRun(200, cProt)
	if got > base {
		t.Errorf("admit/complete adds %.2f allocs/op over the plain RPC path (%.2f vs %.2f), want 0", got-base, got, base)
	}
}

// TestAllocChainHotPaths pins the ledger's per-transaction, per-block and
// per-discovery paths: identifying and sizing a transaction, hashing a
// header, checking a payment Sign memoised, a Merkle root over 200 hashes,
// a whole seal grind and a miner's rescheduling of its next discovery
// allocate nothing. Every miner runs the first four per transaction per
// block, the root and the grind once per block, and a reschedule on every
// head change.
func TestAllocChainHotPaths(t *testing.T) {
	kp, err := cryptoutil.GenerateKeyPair(simnet.SaltedRand(11, 0xC4A1))
	if err != nil {
		t.Fatal(err)
	}
	tx := chain.NewWallet(kp, 0).Pay(chain.Address{9}, 10, 1)
	hdr := chain.Header{Height: 1, Difficulty: 1 << 10}
	var ids, level [200]cryptoutil.Hash
	for i := range ids {
		ids[i] = cryptoutil.SumHash([]byte{byte(i), byte(i >> 8)})
	}
	var sink byte
	zero := map[string]func(){
		"Tx.ID":       func() { id := tx.ID(); sink ^= id[0] },
		"Tx.WireSize": func() { sink ^= byte(tx.WireSize()) },
		"Header.Hash": func() { h := hdr.Hash(); sink ^= h[0] },
		"Tx.CheckSig on a payment Sign memoised": func() {
			if tx.CheckSig() != nil {
				sink++
			}
		},
		"MerkleRootOf over 200 hashes": func() {
			level = ids
			r := cryptoutil.MerkleRootOf(level[:])
			sink ^= r[0]
		},
	}
	zero["Header.Grind at difficulty 2^10"] = func() {
		hdr.Height++ // a fresh search each run
		hdr.Nonce = 0
		hdr.Grind()
		sink ^= byte(hdr.Nonce)
	}
	nw := simnet.New(11)
	m := chain.NewMiner(nw.AddNode(), chain.NewChain(chain.Config{InitialDifficulty: 1 << 12}), chain.Address{3}, 1000)
	m.Start()
	zero["Miner reschedule"] = func() { m.SetHashrate(1000) }
	for name, f := range zero {
		if avg := testing.AllocsPerRun(1000, f); avg != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", name, avg)
		}
	}
	_ = sink
}

// TestAllocChainBlockPath pins what a replica pays per block beyond the
// hashing above. AddBlock of a five-payment block on a known parent, whose
// recipients and miner all hold accounts, allocates the block's record and
// the record's account slice: cumulative work is a value, and the record
// holds its state. One mempool round (five Adds, a Select, RemoveMined of
// what it picked, and a Select that drops the emptied queues) allocates
// the first Select's result: the next round's senders take the dropped
// queues, and Select keeps its working state.
func TestAllocChainBlockPath(t *testing.T) {
	const runs = 100
	wallets := make([]*chain.Wallet, 5)
	coinbase := chain.Address{0x4D}
	alloc := map[chain.Address]uint64{coinbase: 1}
	for i := range wallets {
		kp, err := cryptoutil.GenerateKeyPair(simnet.SaltedRand(12, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		wallets[i] = chain.NewWallet(kp, 0)
		alloc[kp.Fingerprint()] = 1 << 40
	}
	txs := make([]*chain.Tx, len(wallets))
	for i, w := range wallets {
		txs[i] = w.Pay(wallets[(i+1)%len(wallets)].Address(), 1, uint64(1+i))
	}

	c := chain.NewChain(chain.Config{InitialDifficulty: 1, GenesisAlloc: alloc})
	blk, err := c.NewBlock(c.HeadHash(), txs, time.Second, coinbase)
	if err != nil {
		t.Fatal(err)
	}
	// Siblings on genesis, one per run: the same payments under another
	// timestamp, each sealed at difficulty 1.
	sibs := make([]chain.Block, runs+1)
	for i := range sibs {
		sibs[i] = *blk
		sibs[i].Header.Time += int64(i)
	}
	next, failed := 0, false
	addBlock := func() {
		if c.AddBlock(&sibs[next]) != nil {
			failed = true
		}
		next++
	}

	pool, st := chain.NewMempool(), chain.NewState(alloc)
	mined := &chain.Block{Txs: txs}
	round := func() {
		for _, tx := range txs {
			pool.Add(tx)
		}
		if len(pool.Select(st, 10)) != len(txs) {
			failed = true
		}
		pool.RemoveMined(mined)
		if len(pool.Select(st, 10)) != 0 {
			failed = true
		}
	}
	round() // the pool has dropped queues for the measured rounds to take

	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"AddBlock of five payments", 2, addBlock},
		{"mempool round of five payments", 1, round},
	} {
		if avg := testing.AllocsPerRun(runs, tc.f); avg != tc.want {
			t.Errorf("%s allocates %.2f/op, want %.0f", tc.name, avg, tc.want)
		}
		if failed {
			t.Fatalf("%s: a block or a selection went wrong", tc.name)
		}
	}
}

package replic

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/simnet"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Defaults()
	if !cfg.Enabled || cfg.FloorK != 2 || cfg.Cap != 6 || cfg.HalfLife != 30*time.Second {
		t.Fatalf("Defaults() = %+v", cfg)
	}
	// A disabled config passes through untouched: no defaults, no panics.
	z := Config{}.withDefaults()
	if z.Enabled || z.FloorK != 0 {
		t.Fatalf("zero Config gained defaults: %+v", z)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"floor above cap":      {Enabled: true, FloorK: 5, Cap: 3},
		"inverted hysteresis":  {Enabled: true, HotRate: 0.2, ColdRate: 0.5},
		"degenerate threshold": {Enabled: true, HotRate: 0.3, ColdRate: 0.3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: withDefaults did not panic", name)
				}
			}()
			cfg.withDefaults()
		}()
	}
}

func TestTargetReplicasClamps(t *testing.T) {
	cfg := Defaults() // FloorK 2, Cap 6, PerReplicaRate 1.0
	for _, tc := range []struct {
		rate float64
		want int
	}{
		{0, 2}, {-3, 2}, {math.NaN(), 2}, {0.9, 2}, {1.5, 3}, {3.2, 5}, {100, 6}, {math.Inf(1), 6},
	} {
		if got := cfg.TargetReplicas(tc.rate); got != tc.want {
			t.Errorf("TargetReplicas(%g) = %d, want %d", tc.rate, got, tc.want)
		}
	}
}

// TestDirectoryFloorAndOrigin white-boxes the release arbitration: the
// origin is unreleasable and the holder count never drops below the floor.
func TestDirectoryFloorAndOrigin(t *testing.T) {
	nw := simnet.New(1)
	d := NewDirectoryWith(nw.AddNode(), 2, overload.Config{})
	obj := h(1)
	d.onAnnounce(0, announceReq{Object: obj, Holder: 10, Origin: false})
	d.onAnnounce(0, announceReq{Object: obj, Holder: 11, Origin: true})
	d.onAnnounce(0, announceReq{Object: obj, Holder: 12, Origin: false})
	d.onAnnounce(0, announceReq{Object: obj, Holder: 12, Origin: false}) // dedupe
	if got := d.NumHolders(obj); got != 3 {
		t.Fatalf("NumHolders = %d, want 3", got)
	}
	if hs := d.HoldersOf(obj); hs[0] != 11 {
		t.Fatalf("holders = %v, want origin 11 listed first", hs)
	}
	if ok, _ := d.onRelease(0, releaseReq{Object: obj, Holder: 11}); ok != false {
		t.Fatal("origin release approved")
	}
	if ok, _ := d.onRelease(0, releaseReq{Object: obj, Holder: 10}); ok != true {
		t.Fatal("release above floor refused")
	}
	// Now at the floor of 2: every further release of a registered
	// non-origin holder is refused.
	if ok, _ := d.onRelease(0, releaseReq{Object: obj, Holder: 12}); ok != false {
		t.Fatal("release at floor approved")
	}
	if got := d.NumHolders(obj); got != 2 {
		t.Fatalf("NumHolders after arbitration = %d, want the floor 2", got)
	}
	// A holder the directory never registered may always drop.
	if ok, _ := d.onRelease(0, releaseReq{Object: obj, Holder: 99}); ok != true {
		t.Fatal("unknown-holder release refused")
	}
	// Seq ordering: holder 10's release (seq 0) was approved above, so a
	// late retry of its original announce (seq ≤ 0) must NOT resurrect the
	// registration — that phantom would never heal, since providers only
	// offer releases for objects they still hold.
	if ok, _ := d.onAnnounce(0, announceReq{Object: obj, Holder: 10, Seq: 0}); ok != false {
		t.Fatal("stale announce replay accepted after release")
	}
	if got := d.NumHolders(obj); got != 2 {
		t.Fatalf("NumHolders after stale replay = %d, want 2", got)
	}
	// A genuinely newer announce (re-push or restart) supersedes the
	// tombstone and re-registers.
	if ok, _ := d.onAnnounce(0, announceReq{Object: obj, Holder: 10, Seq: 1}); ok != true {
		t.Fatal("fresh announce refused after release")
	}
	if got := d.NumHolders(obj); got != 3 {
		t.Fatalf("NumHolders after re-announce = %d, want 3", got)
	}
	// And a stale release (older than the live registration) is refused:
	// the holder re-announced since making that offer.
	if ok, _ := d.onRelease(0, releaseReq{Object: obj, Holder: 10, Seq: 0}); ok != false {
		t.Fatal("stale release approved against newer registration")
	}
	if got := d.NumHolders(obj); got != 3 {
		t.Fatalf("NumHolders after stale release = %d, want 3", got)
	}
	// Malformed payloads refuse without mutating state.
	if ok, _ := d.onAnnounce(0, "junk"); ok != false {
		t.Fatal("bad announce accepted")
	}
	if ok, _ := d.onRelease(0, 42); ok != false {
		t.Fatal("bad release accepted")
	}
	if resp, _ := d.onHolders(0, "junk"); len(resp.(*holdersResp).Holders) != 0 {
		t.Fatal("bad holders query returned holders")
	}
	if d.TotalReplicas() != 3 {
		t.Fatalf("TotalReplicas = %d, want 3", d.TotalReplicas())
	}
}

// world is the end-to-end harness: a directory anchor, nProv providers
// split across two regions 80ms apart, and nClient clients likewise.
type world struct {
	t       *testing.T
	nw      *simnet.Network
	dir     *Directory
	provs   []*Provider
	clients []*Client
}

func newWorld(t *testing.T, cfg Config, nProv, nClient int) *world {
	t.Helper()
	const regions = 2
	nw := simnet.New(42)
	dirNode := nw.AddNode()
	floor := cfg.withDefaults().FloorK
	if floor == 0 {
		floor = 1
	}
	w := &world{t: t, nw: nw, dir: NewDirectoryWith(dirNode, floor, overload.Config{})}

	regionOf := map[simnet.NodeID]int{dirNode.ID(): 0}
	extra := [][]time.Duration{
		{0, 80 * time.Millisecond},
		{80 * time.Millisecond, 0},
	}
	var provIDs []simnet.NodeID
	var provNodes []*simnet.Node
	for i := 0; i < nProv; i++ {
		n := nw.AddNode()
		regionOf[n.ID()] = i % regions
		provIDs = append(provIDs, n.ID())
		provNodes = append(provNodes, n)
	}
	var clientNodes []*simnet.Node
	for i := 0; i < nClient; i++ {
		n := nw.AddNode()
		regionOf[n.ID()] = i % regions
		clientNodes = append(clientNodes, n)
	}
	nw.SetRegionMatrix(regionOf, extra)
	for _, n := range provNodes {
		p := NewProvider(n, cfg, dirNode.ID(), regions, regionOf)
		p.SetPeers(provIDs)
		p.Start()
		w.provs = append(w.provs, p)
	}
	for _, n := range clientNodes {
		w.clients = append(w.clients, NewClient(n, cfg, dirNode.ID(), regionOf[n.ID()], regionOf, extra))
	}
	return w
}

// hammer schedules client c to fetch obj every `every` from `from` to
// `until`, returning counters of successes and failures.
func (w *world) hammer(c int, obj cryptoutil.Hash, from, until, every time.Duration) (okN, failN *int) {
	okN, failN = new(int), new(int)
	cl := w.clients[c]
	for at := from; at <= until; at += every {
		cl.Node().After(at, func() {
			cl.Get(obj, 5*time.Second, func(data []byte, err error) {
				if err == nil && len(data) > 0 {
					*okN++
				} else {
					*failN++
				}
			})
		})
	}
	return okN, failN
}

func (w *world) metrics() *replicMetrics { return metricsFor(w.nw.Obs()) }

// testCfg is a fast-reacting enabled config for the end-to-end tests.
func testCfg() Config {
	return Config{
		Enabled:        true,
		FloorK:         2,
		Cap:            4,
		HotRate:        0.5,
		ColdRate:       0.2,
		PerReplicaRate: 1.0,
		HalfLife:       10 * time.Second,
		TickEvery:      5 * time.Second,
	}
}

// TestReplicGrowsUnderDemandAndDecaysToFloor is the core lifecycle: a hot
// object's replica set climbs to the cap, then garbage-collects back to
// exactly the floor once the spike decays — with the pinned origin still
// holding.
func TestReplicGrowsUnderDemandAndDecaysToFloor(t *testing.T) {
	w := newWorld(t, testCfg(), 4, 4)
	obj := h(1)
	data := make([]byte, 4096)
	w.provs[0].Put(obj, data, true)

	var okPtrs, failPtrs []*int
	for c := range w.clients {
		ok, fail := w.hammer(c, obj, time.Second, 60*time.Second, 500*time.Millisecond)
		okPtrs, failPtrs = append(okPtrs, ok), append(failPtrs, fail)
	}
	w.nw.Run(90 * time.Second)
	if got := w.dir.NumHolders(obj); got != 4 {
		t.Fatalf("holders at peak = %d, want the cap 4", got)
	}
	if got := w.metrics().created.Value(); got != 3 {
		t.Fatalf("replic.replicas.created = %d, want 3", got)
	}
	if w.metrics().advertSent.Value() == 0 {
		t.Fatal("no adverts sent during a hot spike")
	}

	// Demand stopped at t=60s; by ten half-lives later everything is cold.
	w.nw.Run(240 * time.Second)
	if got := w.dir.NumHolders(obj); got != 2 {
		t.Fatalf("holders after decay = %d, want the floor 2", got)
	}
	if got := w.metrics().decayed.Value(); got != 2 {
		t.Fatalf("replic.replicas.decayed = %d, want 2", got)
	}
	if !w.provs[0].Holds(obj) || !w.provs[0].Pinned(obj) {
		t.Fatal("pinned origin lost its replica")
	}
	if hs := w.dir.HoldersOf(obj); hs[0] != w.provs[0].Node().ID() {
		t.Fatalf("origin missing from holder list: %v", hs)
	}
	oks, fails := 0, 0
	for i := range okPtrs {
		oks += *okPtrs[i]
		fails += *failPtrs[i]
	}
	if fails != 0 {
		t.Fatalf("%d fetch failures in a clean run (%d ok)", fails, oks)
	}
	if oks == 0 {
		t.Fatal("no successful fetches recorded")
	}
}

// TestReplicPinnedNeverReleased is the anchor-exemption regression: a
// pinned origin sits at zero demand among expendable replicas, and the
// decay sweep must take the replica set to the floor without ever touching
// it — the replic analog of fault's anchor exemption from crash sets.
func TestReplicPinnedNeverReleased(t *testing.T) {
	w := newWorld(t, testCfg(), 4, 0)
	obj := h(2)
	data := make([]byte, 1024)
	w.provs[0].Put(obj, data, true)
	for _, p := range w.provs[1:] {
		p.Put(obj, data, false)
	}
	w.nw.Run(time.Second)
	if got := w.dir.NumHolders(obj); got != 4 {
		t.Fatalf("seeded holders = %d, want 4", got)
	}
	// No demand at all: every unpinned holder goes cold on its first tick
	// and asks to release. The directory may approve exactly two.
	w.nw.Run(120 * time.Second)
	if got := w.dir.NumHolders(obj); got != 2 {
		t.Fatalf("holders after cold decay = %d, want the floor 2", got)
	}
	if !w.provs[0].Holds(obj) {
		t.Fatal("pinned origin was released by the decay sweep")
	}
	if hs := w.dir.HoldersOf(obj); hs[0] != w.provs[0].Node().ID() {
		t.Fatalf("origin not in holder list after decay: %v", hs)
	}
	held := 0
	for _, p := range w.provs {
		if p.Holds(obj) {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("%d providers still hold the object, want 2", held)
	}
}

// TestReplicNearestRouting: with a replica in the client's region and the
// origin a region away, an enabled client fetches from the local replica.
func TestReplicNearestRouting(t *testing.T) {
	w := newWorld(t, testCfg(), 2, 2)
	obj := h(3)
	data := make([]byte, 2048)
	w.provs[0].Put(obj, data, true)  // region 0
	w.provs[1].Put(obj, data, false) // region 1

	// Client 1 is in region 1; its nearest holder is provs[1].
	done := 0
	w.clients[1].Node().After(time.Second, func() {
		w.clients[1].Get(obj, 5*time.Second, func(got []byte, err error) {
			done++
			if err != nil || len(got) != len(data) {
				t.Errorf("Get: len=%d err=%v", len(got), err)
			}
		})
	})
	w.nw.Run(10 * time.Second)
	if done != 1 {
		t.Fatalf("done ran %d times", done)
	}
	if w.provs[1].ServedOK != 1 || w.provs[0].ServedOK != 0 {
		t.Fatalf("served split origin=%d replica=%d, want the region-1 replica to serve",
			w.provs[0].ServedOK, w.provs[1].ServedOK)
	}
	if got := w.metrics().nearestHit.Value(); got != 1 {
		t.Fatalf("replic.route.nearest_hit = %d, want 1", got)
	}
	// The serving provider recorded the requester's region.
	dst := make([]float64, 2)
	w.provs[1].demand.LocalRegionRates(obj, w.provs[1].Node().Now(), dst)
	if dst[1] == 0 || dst[0] != 0 {
		t.Fatalf("demand region split = %v, want all in region 1", dst)
	}
}

// TestReplicHedgeCoversDownNearest: the nearest holder is down but still
// directory-listed; the hedge to the second-nearest answers long before
// the primary's timeout would.
func TestReplicHedgeCoversDownNearest(t *testing.T) {
	w := newWorld(t, testCfg(), 2, 2)
	obj := h(4)
	data := make([]byte, 2048)
	w.provs[0].Put(obj, data, true)
	w.provs[1].Put(obj, data, false)
	w.nw.Run(500 * time.Millisecond) // let announces land
	w.provs[1].Node().Crash()

	var gotErr error
	var gotAt time.Duration
	done := 0
	w.clients[1].Node().After(time.Second, func() {
		w.clients[1].Get(obj, 5*time.Second, func(got []byte, err error) {
			done++
			gotErr = err
			gotAt = w.clients[1].Node().Now()
		})
	})
	w.nw.Run(20 * time.Second)
	if done != 1 || gotErr != nil {
		t.Fatalf("done=%d err=%v", done, gotErr)
	}
	if w.metrics().hedgeFired.Value() == 0 {
		t.Fatal("replic.route.hedge_fired never incremented")
	}
	// The hedge beat the 5s primary timeout by a wide margin.
	if took := gotAt - time.Second; took > 5*time.Second/2 {
		t.Fatalf("fetch took %v; the hedge at %v should have answered well inside the 5s primary timeout", took, hedgeAfter)
	}
}

// TestReplicDisabledIsStatic: a zero config serves fetches in directory
// order and never replicates, whatever the demand.
func TestReplicDisabledIsStatic(t *testing.T) {
	w := newWorld(t, Config{}, 3, 4)
	obj := h(5)
	data := make([]byte, 1024)
	w.provs[0].Put(obj, data, true)

	var okPtrs []*int
	for c := range w.clients {
		ok, _ := w.hammer(c, obj, time.Second, 30*time.Second, 500*time.Millisecond)
		okPtrs = append(okPtrs, ok)
	}
	w.nw.Run(60 * time.Second)
	if got := w.dir.NumHolders(obj); got != 1 {
		t.Fatalf("disabled layer grew replicas: holders = %d", got)
	}
	for _, p := range w.provs[1:] {
		if p.NumHeld() != 0 {
			t.Fatal("disabled layer pushed a replica")
		}
	}
	snap := obs.MergeRegistries([]*obs.Registry{w.nw.Obs()})
	for name := range snap.Counters {
		if strings.HasPrefix(name, "resil.") {
			t.Fatalf("disabled layer registered %s: a resilience client was built", name)
		}
	}
	if _, ok := snap.Histograms["resil.rto_s"]; ok {
		t.Fatal("disabled layer registered resil.rto_s: a resilience client was built")
	}
	oks := 0
	for _, p := range okPtrs {
		oks += *p
	}
	if oks == 0 {
		t.Fatal("no successful static fetches recorded")
	}
}

// TestReplicFetchFailover: the origin is the only real holder; a stale
// registration points at a provider that released. The client fails over
// past the stale holder and still completes.
func TestReplicFetchFailover(t *testing.T) {
	w := newWorld(t, testCfg(), 2, 2)
	obj := h(6)
	data := make([]byte, 512)
	w.provs[0].Put(obj, data, true)
	// Stale registration: provs[1] announces but never installs.
	w.dir.onAnnounce(0, announceReq{Object: obj, Holder: w.provs[1].Node().ID()})

	done := 0
	w.clients[1].Node().After(time.Second, func() {
		w.clients[1].Get(obj, 2*time.Second, func(got []byte, err error) {
			done++
			if err != nil || len(got) != len(data) {
				t.Errorf("failover Get: len=%d err=%v", len(got), err)
			}
		})
	})
	w.nw.Run(10 * time.Second)
	if done != 1 {
		t.Fatalf("done ran %d times", done)
	}

	// And when no holder has the bytes at all, the error is terminal.
	missing := h(7)
	w.dir.onAnnounce(0, announceReq{Object: missing, Holder: w.provs[1].Node().ID()})
	var lastErr error
	w.clients[0].Node().After(time.Second, func() {
		w.clients[0].Get(missing, 2*time.Second, func(_ []byte, err error) { lastErr = err })
	})
	w.nw.Run(30 * time.Second)
	if !errors.Is(lastErr, ErrNoReplica) {
		t.Fatalf("missing-object err = %v, want ErrNoReplica", lastErr)
	}
	// An object the directory has never heard of fails the same way.
	w.clients[0].Node().After(time.Second, func() {
		w.clients[0].Get(h(8), 2*time.Second, func(_ []byte, err error) { lastErr = err })
	})
	w.nw.Run(40 * time.Second)
	if !errors.Is(lastErr, ErrNoReplica) {
		t.Fatalf("unknown-object err = %v, want ErrNoReplica", lastErr)
	}
}

// TestReplicRestartReannounces: a provider outage re-registers its held
// objects on restart, idempotently — the directory neither loses nor
// duplicates the registration.
func TestReplicRestartReannounces(t *testing.T) {
	w := newWorld(t, testCfg(), 2, 1)
	obj := h(9)
	w.provs[0].Put(obj, make([]byte, 256), true)
	w.nw.Run(time.Second)
	if w.dir.NumHolders(obj) != 1 {
		t.Fatalf("holders = %d", w.dir.NumHolders(obj))
	}
	w.provs[0].Node().Crash()
	w.nw.Run(10 * time.Second) // ticks fire while down and must do nothing
	w.provs[0].Node().Restart()
	w.nw.Run(20 * time.Second)
	if got := w.dir.NumHolders(obj); got != 1 {
		t.Fatalf("holders after crash/restart cycle = %d, want exactly 1", got)
	}
	if !w.provs[0].Holds(obj) {
		t.Fatal("replica lost across restart")
	}
}

// TestReplicHedgeFailsBeforePrimary: the hedge leg fails while the primary
// is still out, so the hedge's successor runs beside the primary. The
// legs in flight are then holders 0 and 2, not two consecutive ranks, and
// the primary's late win must still be credited to rank 0 — a leg keyed by
// rank parity would hand it to rank 2 and miss the nearest hit.
func TestReplicHedgeFailsBeforePrimary(t *testing.T) {
	nw := simnet.New(5)
	dirNode := nw.AddNode()
	holders := []*simnet.Node{nw.AddNode(), nw.AddNode(), nw.AddNode()}
	client := NewClient(nw.AddNode(), testCfg(), dirNode.ID(), 0, nil, nil)
	simnet.NewRPCNode(dirNode).Serve(methodHolders, func(simnet.NodeID, any) (any, int) {
		ids := make([]simnet.NodeID, len(holders))
		for i, n := range holders {
			ids[i] = n.ID()
		}
		return &holdersResp{Holders: ids}, 40
	})
	// Rank 0 answers after the hedge point, rank 1 (the hedge) misses at
	// once, and rank 2 (the hedge's failover) answers long after rank 0.
	delays := []time.Duration{hedgeAfter + 300*time.Millisecond, 0, 3 * time.Second}
	for i, n := range holders {
		n, d, data := n, delays[i], []byte{byte('a' + i)}
		simnet.NewRPCNode(n).ServeDeferred(methodGet, func(_ simnet.NodeID, _ any, tok simnet.ReplyToken) {
			n.After(d, func() { tok.Reply(&getResp{Data: data, OK: d != 0}, 8) })
		})
	}

	var got []byte
	done := 0
	client.Get(h(10), 5*time.Second, func(data []byte, err error) {
		done++
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		got = data
	})
	nw.RunAll()
	if done != 1 || string(got) != "a" {
		t.Fatalf("done ran %d times with %q, want once with rank 0's %q", done, got, "a")
	}
	m := metricsFor(nw.Obs())
	if m.hedgeFired.Value() != 1 {
		t.Fatalf("replic.route.hedge_fired = %d, want 1", m.hedgeFired.Value())
	}
	if got := m.nearestHit.Value(); got != 1 {
		t.Fatalf("replic.route.nearest_hit = %d, want 1: rank 0's win was credited to another rank", got)
	}
}

// HoldersOf returns a copy of the registered holder list, origin first
// (in-process inspection for experiments and tests).
func (d *Directory) HoldersOf(obj cryptoutil.Hash) []simnet.NodeID {
	hs := d.holders[obj]
	out := make([]simnet.NodeID, len(hs))
	for i := range hs {
		out[i] = hs[i].id
	}
	return out
}

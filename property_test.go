// Property tests (testing/quick): for randomly drawn populations and
// seeds, the substrates must uphold their contracts — gossip with
// anti-entropy converges to every reachable member, the DHT resolves every
// stored key, and any scale-sweep cell is a pure function of its seed.
// These are the invariants the X15 scale sweep's convergence column
// quantifies; here they are checked at property granularity.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/gossip"
	"repro/internal/overload"
	"repro/internal/replic"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/storage/chunker"
	"repro/internal/workload"
)

// quickCfg bounds the draw count (each case builds several simulated
// worlds) and fixes the generator seed so failures reproduce.
func quickCfg(seed int64, count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}
}

// clampPop maps an arbitrary byte to a population in [16, 64].
func clampPop(raw uint8) int { return 16 + int(raw)%49 }

// TestQuickGossipConverges: with a connected overlay and anti-entropy
// repair enabled, every member eventually holds every published item,
// whatever the seed and population.
func TestQuickGossipConverges(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		n := clampPop(rawN)
		nw := simnet.New(seed % (1 << 30))
		members := make([]*gossip.Member, n)
		ids := make([]simnet.NodeID, n)
		for i := range members {
			node := nw.AddNode()
			ids[i] = node.ID()
			members[i] = gossip.NewMember(node, gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
		}
		for i, m := range members {
			// Ring + skip links: connected at any n, diameter O(log n).
			m.SetPeers([]simnet.NodeID{
				ids[(i+1)%n], ids[(i+2)%n], ids[(i+n/2)%n], ids[(i+n-1)%n],
			})
		}
		const nItems = 4
		for i := 0; i < nItems; i++ {
			data := fmt.Sprintf("quick-item-%d", i)
			it := gossip.Item{ID: cryptoutil.SumHash([]byte(data)), Data: data, Size: len(data)}
			src := members[(i*7)%n]
			nw.Schedule(time.Duration(i)*10*time.Second, func() { src.Publish(it) })
		}
		nw.Run(10 * time.Minute)
		for _, m := range members {
			if m.Len() != nItems {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(1001, 6)); err != nil {
		t.Error(err)
	}
}

// TestQuickDHTResolvesStoredKeys: once the population has bootstrapped and
// stores settle, every stored key resolves from every probed reader. K is
// left at the Kademlia default (20), which exceeds these populations'
// bucket occupancy — resolution failures would mean routing or storage
// logic lost data, not statistical misses.
func TestQuickDHTResolvesStoredKeys(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		n := clampPop(rawN)
		nw := simnet.New(seed % (1 << 30))
		peers := make([]*dht.Peer, n)
		for i := range peers {
			peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, dht.Config{})
		}
		for i := 1; i < n; i++ {
			p := peers[i]
			nw.After(time.Duration(i)*50*time.Millisecond, func() {
				p.Bootstrap(peers[0].Contact(), nil)
			})
		}
		nw.RunAll()
		const nKeys = 5
		keys := make([]dht.Key, nKeys)
		for i := range keys {
			keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf("quick-key-%d", i)))
			peers[i%n].Put(keys[i], []byte{byte(i)}, nil)
		}
		nw.RunAll()
		ok := true
		for r := 1; r < n; r += 7 {
			for _, k := range keys {
				found := false
				peers[r].Get(k, func(_ []byte, f bool) { found = f })
				nw.RunAll()
				if !found {
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, quickCfg(2002, 6)); err != nil {
		t.Error(err)
	}
}

// TestQuickScaleCellDeterministic: a scale-sweep cell run twice with the
// same (subsystem, seed, N) yields identical convergence and traffic —
// the invariant the bench gate's byte-exact comparison rests on.
func TestQuickScaleCellDeterministic(t *testing.T) {
	subs := experiments.ScaleSubsystems()
	prop := func(seed int64, rawN uint8, which uint8) bool {
		n := clampPop(rawN) + 20 // [36, 84]: big enough for every subsystem
		sub := subs[int(which)%len(subs)]
		cfg := simnet.NetworkConfig{Seed: seed % (1 << 30)}
		a := experiments.ScaleCellRun(sub, n, cfg)
		b := experiments.ScaleCellRun(sub, n, cfg)
		return a.Converged == b.Converged && a.Messages == b.Messages
	}
	if err := quick.Check(prop, quickCfg(3003, 6)); err != nil {
		t.Error(err)
	}
}

// TestQuickChunkerDeterministic: two chunkers built from the same bounds
// cut any input at byte-identical boundaries, and a reused chunker
// reproduces its own cuts — boundary placement is a pure function of
// (bounds, content). Cross-user dedup depends on this: two uploaders only
// produce identical chunks if their chunkers agree.
func TestQuickChunkerDeterministic(t *testing.T) {
	prop := func(raw []byte, sel uint8) bool {
		avg := 256 << (sel % 3)
		cfg := chunker.Defaults(avg)
		a, err := chunker.New(cfg)
		if err != nil {
			return false
		}
		b, err := chunker.New(cfg)
		if err != nil {
			return false
		}
		data := append(raw, raw...) // stretch tiny draws into multi-chunk inputs
		for len(data) < 4*avg {
			data = append(data, raw...)
			data = append(data, byte(len(data)))
		}
		cutsA := cuts(a, data)
		cutsB := cuts(b, data)
		cutsA2 := cuts(a, data)
		if len(cutsA) != len(cutsB) || len(cutsA) != len(cutsA2) {
			return false
		}
		for i := range cutsA {
			if cutsA[i] != cutsB[i] || cutsA[i] != cutsA2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(1701, 40)); err != nil {
		t.Error(err)
	}
}

// TestQuickChunkerLocality: a one-byte edit changes O(1) chunks — the
// multiset of chunks before and after the edit differs by at most the
// chunks overlapping one resynchronisation window, never the whole file.
// This is the property that keeps re-uploading an edited document cheap.
func TestQuickChunkerLocality(t *testing.T) {
	ck, err := chunker.New(chunker.Defaults(512))
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, rawAt uint16, flip uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 32<<10)
		rng.Read(data)
		edited := append([]byte{}, data...)
		at := int(rawAt) % len(edited)
		edited[at] ^= flip | 1 // always a real change
		before := map[string]int{}
		ck.Split(data, func(c []byte) { before[string(c)]++ })
		changed := 0
		ck.Split(edited, func(c []byte) {
			if before[string(c)] > 0 {
				before[string(c)]--
			} else {
				changed++
			}
		})
		// The edit dirties the chunk containing it; boundary movement can
		// additionally merge/split its neighbours. Anything above a small
		// constant means the edit's influence escaped the window.
		return changed <= 4
	}
	if err := quick.Check(prop, quickCfg(1702, 30)); err != nil {
		t.Error(err)
	}
}

// TestQuickDedupOrderInvariant: a localstore's physical and logical byte
// accounting is independent of upload order — content-address dedup is
// commutative, so whichever user uploads first, the fleet stores the same
// bytes and reports the same dedup ratio.
func TestQuickDedupOrderInvariant(t *testing.T) {
	prop := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rawN)%12
		// A chunk population with deliberate duplicates.
		chunks := make([][]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			c := make([]byte, 64+rng.Intn(512))
			rng.Read(c)
			chunks = append(chunks, c)
			if rng.Intn(2) == 0 {
				chunks = append(chunks, c) // duplicate upload
			}
		}
		put := func(order []int) (int64, int64, float64) {
			ls := storage.NewLocalStore(storage.LocalStoreConfig{Capacity: 1 << 20})
			for _, i := range order {
				if !ls.Put(cryptoutil.SumHash(chunks[i]), chunks[i]) {
					t.Fatal("put refused below capacity")
				}
			}
			return ls.PhysicalBytes(), ls.LogicalBytes(), ls.DedupRatio()
		}
		fwd := make([]int, len(chunks))
		for i := range fwd {
			fwd[i] = i
		}
		shuffled := append([]int{}, fwd...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		p1, l1, r1 := put(fwd)
		p2, l2, r2 := put(shuffled)
		return p1 == p2 && l1 == l2 && r1 == r2
	}
	if err := quick.Check(prop, quickCfg(1703, 40)); err != nil {
		t.Error(err)
	}
}

// TestQuickZipfChiSquare: for any catalog size and skew, empirical draw
// frequencies from the alias table fit the exact pmf under a chi-square
// goodness-of-fit test. The critical value comes from the Wilson–Hilferty
// approximation at z ≈ 3.29 (the 99.95th percentile), so a false failure
// across the whole quick batch is vanishingly unlikely while a broken
// alias table (wrong residues, swapped buckets) fails immediately.
func TestQuickZipfChiSquare(t *testing.T) {
	prop := func(seed int64, rawN, rawS uint8) bool {
		n := 8 + int(rawN)%25      // catalog size in [8, 32]
		s := float64(rawS%16) / 10 // skew in [0, 1.5]
		z := workload.NewZipf(n, s)
		rng := workload.Rand(seed%(1<<30), 0xC41)
		const draws = 50000
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[z.Draw(rng)]++
		}
		var chi2 float64
		for i, c := range counts {
			exp := z.P(i) * draws
			chi2 += (c - exp) * (c - exp) / exp
		}
		df := float64(n - 1)
		const zCrit = 3.29
		crit := df * math.Pow(1-2/(9*df)+zCrit*math.Sqrt(2/(9*df)), 3)
		if chi2 > crit {
			t.Logf("n=%d s=%.1f: chi2 %.1f > crit %.1f", n, s, chi2, crit)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(181, 20)); err != nil {
		t.Error(err)
	}
}

// TestQuickDiurnalMeanWithin1pct: whatever the amplitude, night floor,
// and period, the normalizer keeps the time-averaged rate within 1% of
// the configured mean — the workload engine's "same total demand, shaped
// differently" contract.
func TestQuickDiurnalMeanWithin1pct(t *testing.T) {
	prop := func(rawMean, rawAmp, rawFloor uint8, rawPeriod uint16) bool {
		cfg := workload.DiurnalConfig{
			Mean:   0.05 + float64(rawMean)/32,  // [0.05, 8]
			Amp:    float64(rawAmp%100) / 100,   // [0, 1)
			Floor:  float64(rawFloor%150) / 100, // [0, 1.5)
			Period: time.Duration(1+int(rawPeriod)%1440) * time.Minute,
		}
		d := workload.NewDiurnal(cfg)
		const steps = 10000
		var sum float64
		for i := 0; i < steps; i++ {
			at := time.Duration((float64(i) + 0.5) / steps * float64(cfg.Period))
			sum += d.Rate(at)
		}
		avg := sum / steps
		if math.Abs(avg-cfg.Mean) > 0.01*cfg.Mean {
			t.Logf("cfg %+v: time-averaged %.4f vs mean %.4f", cfg, avg, cfg.Mean)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(182, 50)); err != nil {
		t.Error(err)
	}
}

// TestQuickFlashRampHitsPeak: for any spike geometry the multiplier rides
// the ramp monotonically, tops out at exactly the configured peak, and
// never undershoots baseline afterwards.
func TestQuickFlashRampHitsPeak(t *testing.T) {
	prop := func(rawPeak uint16, rawStart, rawRamp, rawDecay uint8) bool {
		f := workload.Flash{
			Object: 0,
			Start:  time.Duration(rawStart) * time.Second,
			Ramp:   time.Duration(1+int(rawRamp)%240) * time.Second,
			Peak:   2 + float64(rawPeak%5000),
			Decay:  time.Duration(int(rawDecay)%300) * time.Second,
		}
		if f.Multiplier(f.Start+f.Ramp) != f.Peak {
			t.Logf("%+v: multiplier at ramp top %.3f, want exactly %.3f", f, f.Multiplier(f.Start+f.Ramp), f.Peak)
			return false
		}
		prev := 0.0
		for i := 0; i <= 16; i++ {
			at := f.Start + f.Ramp*time.Duration(i)/16
			m := f.Multiplier(at)
			if m < prev || m < 1 {
				return false
			}
			prev = m
		}
		for i := 1; i <= 16; i++ {
			if m := f.Multiplier(f.Start + f.Ramp + f.Decay*time.Duration(i)); m < 1 || m > f.Peak {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(183, 100)); err != nil {
		t.Error(err)
	}
}

// TestQuickReplicTargetWithinBounds: whatever swarm rate the demand
// tracker reports — including zero, negative garbage, NaN, and ±Inf —
// the replica target stays within [FloorK, Cap].
func TestQuickReplicTargetWithinBounds(t *testing.T) {
	prop := func(rawFloor, rawSpan uint8, rate float64, special uint8) bool {
		floor := 1 + int(rawFloor)%6
		cap := floor + int(rawSpan)%8
		switch special % 5 {
		case 1:
			rate = math.NaN()
		case 2:
			rate = math.Inf(1)
		case 3:
			rate = math.Inf(-1)
		case 4:
			rate = -rate
		}
		cfg := replic.Config{Enabled: true, FloorK: floor, Cap: cap}
		got := cfg.TargetReplicas(rate)
		if got < floor || got > cap {
			t.Logf("TargetReplicas(%v) = %d outside [%d, %d]", rate, got, floor, cap)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(193, 300)); err != nil {
		t.Error(err)
	}
}

// TestQuickReplicRankTotalOrder: nearest-replica ranking is a total
// order — any permutation of the same holder set ranks to the identical
// sequence, estimates are non-decreasing along the ranked order with node
// id breaking ties, and with no SRTT measurements the order is exactly
// the region-matrix one-way delays' order.
func TestQuickReplicRankTotalOrder(t *testing.T) {
	prop := func(seed int64, rawN, rawR uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(rawN)%12
		regions := 1 + int(rawR)%4
		extra := make([][]time.Duration, regions)
		for i := range extra {
			extra[i] = make([]time.Duration, regions)
			for j := range extra[i] {
				if i != j {
					extra[i][j] = time.Duration(1+rng.Int63n(200)) * time.Millisecond
				}
			}
		}
		regionOf := map[simnet.NodeID]int{}
		holders := make([]simnet.NodeID, n)
		srtt := map[simnet.NodeID]time.Duration{}
		for i := range holders {
			id := simnet.NodeID(i + 1)
			holders[i] = id
			regionOf[id] = rng.Intn(regions)
			if rng.Intn(2) == 0 {
				srtt[id] = time.Duration(1+rng.Int63n(500)) * time.Millisecond
			}
		}
		measured := func(id simnet.NodeID) (time.Duration, bool) {
			d, ok := srtt[id]
			return d, ok
		}
		r := replic.NewRouter(rng.Intn(regions), regionOf, extra, measured)
		want := r.Rank(append([]simnet.NodeID(nil), holders...))
		for trial := 0; trial < 4; trial++ {
			perm := append([]simnet.NodeID(nil), holders...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			got := r.Rank(perm)
			for i := range want {
				if got[i] != want[i] {
					t.Logf("permutation ranked %v, want %v", got, want)
					return false
				}
			}
		}
		for i := 1; i < len(want); i++ {
			a, b := r.Estimate(want[i-1]), r.Estimate(want[i])
			if a > b || (a == b && want[i-1] > want[i]) {
				t.Logf("rank not ordered at %d: %v(%v) before %v(%v)", i, want[i-1], a, want[i], b)
				return false
			}
		}
		// Matrix-consistency: with no measurements at all the order is the
		// one-way delay order.
		noMeas := replic.NewRouter(0, regionOf, extra, func(simnet.NodeID) (time.Duration, bool) { return 0, false })
		ranked := noMeas.Rank(append([]simnet.NodeID(nil), holders...))
		for i := 1; i < len(ranked); i++ {
			if noMeas.Estimate(ranked[i-1]) > noMeas.Estimate(ranked[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(197, 150)); err != nil {
		t.Error(err)
	}
}

// overloadQuickWorld builds one saturable overload world: a server on a
// jitter-free constrained uplink (so reply order is exactly queue order —
// the discipline under test, not link noise) behind the given config,
// plus n zero-profile clients.
func overloadQuickWorld(seed int64, n int, cfg overload.Config) (*simnet.Network, *overload.Server, *simnet.RPCNode, []*simnet.RPCNode) {
	nw := simnet.New(seed)
	srvNode := nw.AddNodeWithProfile(simnet.LinkProfile{
		Latency: 25 * time.Millisecond, UplinkBps: 1e6, DownlinkBps: 20e6,
	})
	srv := simnet.NewRPCNode(srvNode)
	ov := overload.New(srv, cfg)
	clients := make([]*simnet.RPCNode, n)
	for i := range clients {
		clients[i] = simnet.NewRPCNode(nw.AddNode())
	}
	return nw, ov, srv, clients
}

// TestQuickOverloadLimitWithinBounds: whatever the drawn AIMD bounds,
// queue length, and offered load, the admission controller's concurrency
// limit stays inside [MinLimit, MaxLimit] at every sampled instant —
// additive increase clamps at the ceiling and the multiplicative cut at
// the floor, never beyond.
func TestQuickOverloadLimitWithinBounds(t *testing.T) {
	prop := func(seed int64, rawMin, rawSpan, rawQ, rawClients uint8) bool {
		minL := 1 + int(rawMin)%4
		maxL := minL + int(rawSpan)%8
		cfg := overload.Config{
			Enabled: true, QueueLen: 4 + int(rawQ)%32,
			Target: 200 * time.Millisecond, SLO: time.Second,
			MinLimit: minL, MaxLimit: maxL,
			RetryAfterBase: 250 * time.Millisecond,
		}
		n := 4 + int(rawClients)%12
		nw, ov, srv, clients := overloadQuickWorld(seed%(1<<30), n, cfg)
		ov.Protect("get", func(from simnet.NodeID, req any) (any, int) { return req, 32 << 10 })
		inBounds := true
		check := func() {
			if l := ov.Limit(); l < float64(minL) || l > float64(maxL) {
				inBounds = false
			}
		}
		for i := 0; i < 60; i++ {
			at := time.Duration(i) * time.Second
			nw.Schedule(at, check)
			for c := 0; c < n; c++ {
				c := c
				nw.Schedule(at+time.Duration(c)*37*time.Millisecond, func() {
					clients[c].Call(srv.Node().ID(), "get", c, 64, 30*time.Second, func(any, error) {})
				})
			}
		}
		nw.Run(2 * time.Minute)
		check()
		return inBounds
	}
	if err := quick.Check(prop, quickCfg(2020, 4)); err != nil {
		t.Error(err)
	}
}

// TestQuickOverloadAdmissionDeterministic: the full admission transcript
// — per-request admit/shed outcome in completion order plus every
// overload counter — is a pure function of (seed, population, request
// count). Two runs of the same draw must match byte for byte; this is
// the property the X20 bench golden pins at experiment scale.
func TestQuickOverloadAdmissionDeterministic(t *testing.T) {
	run := func(seed int64, n, reqs int) string {
		cfg := overload.Config{
			Enabled: true, QueueLen: 8,
			Target: 200 * time.Millisecond, SLO: time.Second,
			MinLimit: 1, MaxLimit: 4, RetryAfterBase: 250 * time.Millisecond,
		}
		nw, ov, srv, clients := overloadQuickWorld(seed, n, cfg)
		ov.Protect("get", func(from simnet.NodeID, req any) (any, int) { return req, 24 << 10 })
		var transcript []string
		for c := 0; c < n; c++ {
			c := c
			for k := 0; k < reqs; k++ {
				k := k
				nw.Schedule(time.Duration(c*73+k*211)*time.Millisecond, func() {
					clients[c].Call(srv.Node().ID(), "get", k, 64, 30*time.Second, func(resp any, err error) {
						transcript = append(transcript, fmt.Sprintf("%d.%d:%v:%v", c, k, isShed(resp), err == nil))
					})
				})
			}
		}
		nw.Run(2 * time.Minute)
		reg := nw.Obs()
		return fmt.Sprintf("%v|off=%d adm=%d q=%d shed=%d codel=%d", transcript,
			reg.Counter("overload.offered").Value(), reg.Counter("overload.admitted").Value(),
			reg.Counter("overload.queued").Value(), reg.Counter("overload.shed").Value(),
			reg.Counter("overload.codel.dropped").Value())
	}
	prop := func(seed int64, rawN, rawR uint8) bool {
		s := seed % (1 << 30)
		n := 2 + int(rawN)%8
		reqs := 4 + int(rawR)%16
		return run(s, n, reqs) == run(s, n, reqs)
	}
	if err := quick.Check(prop, quickCfg(2021, 4)); err != nil {
		t.Error(err)
	}
}

// TestQuickOverloadSurvivorFIFO: however the CoDel front-drop and the
// admission sheds carve up a saturated queue, the requests that survive
// to be served complete in per-sender FIFO order — dropping from the
// front can only remove elements, never reorder the rest. (Jitter-free
// links in overloadQuickWorld make reply arrival order equal to service
// order, so a violation here is a queue-discipline bug, not link noise.)
func TestQuickOverloadSurvivorFIFO(t *testing.T) {
	prop := func(seed int64, rawSenders, rawReqs uint8) bool {
		nSend := 2 + int(rawSenders)%8
		nReq := 4 + int(rawReqs)%24
		cfg := overload.Config{
			Enabled: true, QueueLen: 8,
			Target: 100 * time.Millisecond, SLO: 500 * time.Millisecond,
			MinLimit: 1, MaxLimit: 2, RetryAfterBase: 100 * time.Millisecond,
		}
		nw, ov, srv, clients := overloadQuickWorld(seed%(1<<30), nSend, cfg)
		ov.Protect("get", func(from simnet.NodeID, req any) (any, int) { return req, 24 << 10 })
		served := make([][]int, nSend)
		for c := 0; c < nSend; c++ {
			c := c
			for k := 0; k < nReq; k++ {
				k := k
				nw.Schedule(time.Duration(c*61+k*157)*time.Millisecond, func() {
					clients[c].Call(srv.Node().ID(), "get", k, 64, 30*time.Second, func(resp any, err error) {
						if err == nil && !isShed(resp) {
							served[c] = append(served[c], k)
						}
					})
				})
			}
		}
		nw.Run(2 * time.Minute)
		for c := range served {
			for i := 1; i < len(served[c]); i++ {
				if served[c][i] <= served[c][i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(2022, 5)); err != nil {
		t.Error(err)
	}
}

// isShed reports whether an RPC response payload is an overload shed marker.
func isShed(resp any) bool {
	_, ok := resp.(overload.Shed)
	return ok
}

// cuts returns the end offset of every chunk c cuts data into.
func cuts(c *chunker.Chunker, data []byte) []int {
	var out []int
	end := 0
	c.Split(data, func(chunk []byte) {
		end += len(chunk)
		out = append(out, end)
	})
	return out
}

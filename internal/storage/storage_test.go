package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
)

func TestSplitChunks(t *testing.T) {
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	chunks := SplitChunks(data, 32)
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	var total []byte
	for _, c := range chunks {
		if !c.Verify() {
			t.Error("chunk fails self-verification")
		}
		total = append(total, c.Data...)
	}
	if !bytes.Equal(total, data) {
		t.Error("chunks do not reassemble")
	}
	if len(SplitChunks(nil, 32)) != 1 {
		t.Error("empty data should yield one empty chunk")
	}
	if got := SplitChunks(data, 0); len(got) != 1 {
		t.Error("zero chunk size should select default (one chunk for small data)")
	}
}

func TestChunkVerifyDetectsTamper(t *testing.T) {
	c := NewChunk([]byte("data"))
	c.Data = []byte("tampered")
	if c.Verify() {
		t.Error("tampered chunk verified")
	}
}

func TestPlacementBookkeeping(t *testing.T) {
	pl := NewPlacement()
	id := cryptoutil.SumHash([]byte("x"))
	a, b := ProviderRef{Node: 1}, ProviderRef{Node: 2}
	pl.Add(id, a)
	pl.Add(id, a) // idempotent
	pl.Add(id, b)
	if pl.Count(id) != 2 {
		t.Errorf("count = %d", pl.Count(id))
	}
	pl.Remove(id, a)
	if pl.Count(id) != 1 || pl.Holders[id][0].Node != 2 {
		t.Error("remove failed")
	}
	m := &Manifest{Chunks: []cryptoutil.Hash{id}}
	if pl.MinRedundancy(m) != 1 {
		t.Error("min redundancy")
	}
	if (&Manifest{Mode: ModeErasure, DataShards: 4, ParityShards: 2}).RedundancyFactor() != 1.5 {
		t.Error("erasure redundancy factor")
	}
	if (&Manifest{Mode: ModeReplicate, Replicas: 3}).RedundancyFactor() != 3 {
		t.Error("replicate redundancy factor")
	}
}

// storageWorld builds a client plus n providers.
func storageWorld(t testing.TB, seed int64, n int, capacity int64, cheats ...CheatMode) (*simnet.Network, *Client, []*Provider) {
	t.Helper()
	nw := simnet.New(seed)
	client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	providers := make([]*Provider, n)
	for i := range providers {
		cheat := Honest
		if i < len(cheats) {
			cheat = cheats[i]
		}
		providers[i] = NewProvider(nw.AddNode(), ProviderConfig{Capacity: capacity, Cheat: cheat})
	}
	return nw, client, providers
}

func refs(providers []*Provider) []ProviderRef {
	out := make([]ProviderRef, len(providers))
	for i, p := range providers {
		out[i] = p.Ref()
	}
	return out
}

func mkData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestUploadDownloadReplicated(t *testing.T) {
	nw, client, providers := storageWorld(t, 1, 5, 1<<20)
	data := mkData(2, 3000)

	var m *Manifest
	var pl *Placement
	var upErr error
	client.Upload(data, 1024, refs(providers), 3, func(mm *Manifest, pp *Placement, err error) {
		m, pl, upErr = mm, pp, err
	})
	nw.RunAll()
	if upErr != nil {
		t.Fatal(upErr)
	}
	if len(m.Chunks) != 3 {
		t.Fatalf("chunks = %d", len(m.Chunks))
	}
	if pl.MinRedundancy(m) != 3 {
		t.Errorf("redundancy = %d, want 3", pl.MinRedundancy(m))
	}

	var got []byte
	var dlErr error
	client.Download(m, pl, func(d []byte, err error) { got, dlErr = d, err })
	nw.RunAll()
	if dlErr != nil {
		t.Fatal(dlErr)
	}
	if !bytes.Equal(got, data) {
		t.Error("download mismatch")
	}
}

func TestUploadValidation(t *testing.T) {
	nw, client, providers := storageWorld(t, 2, 2, 1<<20)
	gotErr := false
	client.Upload([]byte("x"), 0, refs(providers), 3, func(m *Manifest, pl *Placement, err error) {
		gotErr = err != nil
	})
	nw.RunAll()
	if !gotErr {
		t.Error("upload with replicas > providers should fail")
	}
	client.UploadErasure([]byte("x"), 4, 2, refs(providers), func(m *Manifest, pl *Placement, err error) {
		gotErr = err != nil
	})
	nw.RunAll()
	if !gotErr {
		t.Error("erasure upload with too few providers should fail")
	}
}

func TestDownloadSurvivesProviderDeath(t *testing.T) {
	nw, client, providers := storageWorld(t, 3, 5, 1<<20)
	data := mkData(4, 2000)
	var m *Manifest
	var pl *Placement
	client.Upload(data, 512, refs(providers), 3, func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()
	// Kill two providers; each chunk still has ≥1 live replica.
	providers[0].Node().Crash()
	providers[1].Node().Crash()
	var got []byte
	var dlErr error
	client.Download(m, pl, func(d []byte, err error) { got, dlErr = d, err })
	nw.RunAll()
	if dlErr != nil || !bytes.Equal(got, data) {
		t.Errorf("download after deaths failed: %v", dlErr)
	}
}

func TestErasureUploadDownloadAndLoss(t *testing.T) {
	nw, client, providers := storageWorld(t, 5, 6, 1<<20)
	data := mkData(6, 5000)
	var m *Manifest
	var pl *Placement
	var upErr error
	client.UploadErasure(data, 4, 2, refs(providers), func(mm *Manifest, pp *Placement, err error) {
		m, pl, upErr = mm, pp, err
	})
	nw.RunAll()
	if upErr != nil {
		t.Fatal(upErr)
	}
	if len(m.Chunks) != 6 {
		t.Fatalf("shards = %d", len(m.Chunks))
	}
	// Kill any 2 providers: still recoverable from 4 shards.
	providers[1].Node().Crash()
	providers[4].Node().Crash()
	var got []byte
	var dlErr error
	client.Download(m, pl, func(d []byte, err error) { got, dlErr = d, err })
	nw.RunAll()
	if dlErr != nil || !bytes.Equal(got, data) {
		t.Fatalf("erasure download with 2 losses failed: %v", dlErr)
	}
	// A third loss exceeds parity: download must fail.
	providers[2].Node().Crash()
	dlErr = nil
	client.Download(m, pl, func(d []byte, err error) { dlErr = err })
	nw.RunAll()
	if dlErr == nil {
		t.Error("download with 3 losses in a (4,6) code should fail")
	}
}

func TestCapacityRefusal(t *testing.T) {
	nw, client, providers := storageWorld(t, 7, 1, 100) // tiny provider
	var upErr error
	client.Upload(mkData(8, 1000), 512, refs(providers), 1, func(m *Manifest, pl *Placement, err error) { upErr = err })
	nw.RunAll()
	if upErr == nil {
		t.Error("upload exceeding provider capacity should fail")
	}
}

func TestAuditHonestAndCheaters(t *testing.T) {
	nw, client, providers := storageWorld(t, 9, 3, 1<<20, Honest, DropAfterAck, CorruptBits)
	data := mkData(10, 2000)
	var m *Manifest
	var pl *Placement
	client.Upload(data, 1024, refs(providers), 3, func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()
	// All three "accepted" the data (cheaters lie), so placement shows 3.
	if pl.MinRedundancy(m) != 3 {
		t.Fatalf("placement = %d", pl.MinRedundancy(m))
	}
	var report *AuditReport
	client.Audit(m, pl, 10*time.Second, func(r *AuditReport) { report = r })
	nw.RunAll()
	if report == nil {
		t.Fatal("no report")
	}
	// Per chunk: honest passes, dropper and corrupter fail.
	failedBy := map[simnet.NodeID]int{}
	for _, res := range report.Results {
		if !res.OK {
			failedBy[res.Holder.Node]++
		}
	}
	if failedBy[providers[0].Node().ID()] != 0 {
		t.Error("honest provider failed audit")
	}
	if failedBy[providers[1].Node().ID()] == 0 {
		t.Error("data-dropping provider passed audit")
	}
	if failedBy[providers[2].Node().ID()] == 0 {
		t.Error("bit-corrupting provider passed audit")
	}
	if len(report.FailedHolders()) != 2 {
		t.Errorf("failed holders = %d, want 2", len(report.FailedHolders()))
	}
	if report.Passed()+report.Failed() != len(report.Results) {
		t.Error("report accounting inconsistent")
	}
}

func TestOutsourcingAttackCaughtByDeadline(t *testing.T) {
	// Providers on slow links; the outsourcer must make an extra round trip
	// to its accomplice, blowing a deadline an honest provider meets.
	nw := simnet.New(11)
	nw.SetDefaultProfile(simnet.LinkProfile{Latency: 50 * time.Millisecond, UplinkBps: 10e6, DownlinkBps: 10e6})
	client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	honest := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 20})
	outsourcer := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 20, Cheat: OutsourceFetch})
	accomplice := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 20})
	outsourcer.SetAccomplice(accomplice.Node().ID())

	data := mkData(12, 1500)
	var m *Manifest
	var pl *Placement
	// Place on honest + outsourcer + accomplice: the accomplice genuinely
	// stores, the outsourcer only pretends.
	client.Upload(data, 2048, []ProviderRef{honest.Ref(), outsourcer.Ref(), accomplice.Ref()}, 3,
		func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()

	// Generous deadline: outsourcer passes (it fetches and answers
	// correctly) — the attack "works" without timing enforcement.
	var lax *AuditReport
	client.Audit(m, pl, 10*time.Second, func(r *AuditReport) { lax = r })
	nw.RunAll()
	if lax.Failed() != 0 {
		t.Fatalf("with lax deadline all should pass, failed=%d", lax.Failed())
	}
	// Tight deadline (≈ 1 honest RTT + margin): outsourcer caught.
	var strict *AuditReport
	client.Audit(m, pl, 300*time.Millisecond, func(r *AuditReport) { strict = r })
	nw.RunAll()
	failedBy := map[simnet.NodeID]bool{}
	for _, res := range strict.Results {
		if !res.OK {
			failedBy[res.Holder.Node] = true
		}
	}
	if failedBy[honest.Node().ID()] {
		t.Error("honest provider failed tight deadline")
	}
	if !failedBy[outsourcer.Node().ID()] {
		t.Error("outsourcing provider passed tight deadline")
	}
}

func TestRetrievabilitySentinels(t *testing.T) {
	nw, client, providers := storageWorld(t, 13, 2, 1<<20, Honest, DropAfterAck)
	data := mkData(14, 1000)
	chunk := NewChunk(data)
	sentinels, err := MakeSentinels(rand.New(rand.NewSource(15)), data, 5)
	if err != nil {
		t.Fatal(err)
	}
	var m *Manifest
	var pl *Placement
	client.Upload(data, 0, refs(providers), 2, func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()
	_ = m

	var okHonest, okDropper bool
	client.RetAudit(chunk.ID, providers[0].Ref(), sentinels[0], 10*time.Second, func(ok bool) { okHonest = ok })
	client.RetAudit(chunk.ID, providers[1].Ref(), sentinels[1], 10*time.Second, func(ok bool) { okDropper = ok })
	nw.RunAll()
	if !okHonest {
		t.Error("honest provider failed retrievability audit")
	}
	if okDropper {
		t.Error("dropping provider passed retrievability audit")
	}
	_ = pl
}

func TestSealUnsealRoundTrip(t *testing.T) {
	data := mkData(16, 10_000) // > HKDF single-expand limit
	sealed := Seal(data, 7, 2)
	if bytes.Equal(sealed, data) {
		t.Error("sealing is identity")
	}
	if !bytes.Equal(Seal(sealed, 7, 2), data) {
		t.Error("unseal failed")
	}
	// Different provider/replica give different sealed bytes.
	if bytes.Equal(Seal(data, 7, 2), Seal(data, 8, 2)) {
		t.Error("seal not provider-specific")
	}
	if bytes.Equal(Seal(data, 7, 2), Seal(data, 7, 3)) {
		t.Error("seal not replica-specific")
	}
	if Seal(nil, 1, 1) != nil {
		t.Error("sealing empty data")
	}
}

func TestProofOfReplicationDetectsDedup(t *testing.T) {
	nw, client, providers := storageWorld(t, 17, 2, 1<<20, Honest, DedupReplicas)
	honest, cheater := providers[0], providers[1]
	data := mkData(18, 2000)
	chunk := NewChunk(data)

	// Store 3 sealed replicas on each.
	stored := 0
	for _, p := range []*Provider{honest, cheater} {
		for r := 0; r < 3; r++ {
			client.PutSealed(chunk.ID, data, p.Ref(), r, func(ok bool) {
				if ok {
					stored++
				}
			})
		}
	}
	nw.RunAll()
	if stored != 6 {
		t.Fatalf("stored acks = %d, want 6 (cheater lies)", stored)
	}

	// Audit all replicas on both providers.
	results := map[simnet.NodeID][]bool{}
	for _, p := range []*Provider{honest, cheater} {
		for r := 0; r < 3; r++ {
			root := SealedRoot(data, p.Node().ID(), r)
			p := p
			client.RepAudit(chunk.ID, root, len(data), p.Ref(), r, 10*time.Second, func(ok bool) {
				results[p.Node().ID()] = append(results[p.Node().ID()], ok)
			})
		}
	}
	nw.RunAll()
	for _, ok := range results[honest.Node().ID()] {
		if !ok {
			t.Error("honest provider failed a replica audit")
		}
	}
	cheaterPasses := 0
	for _, ok := range results[cheater.Node().ID()] {
		if ok {
			cheaterPasses++
		}
	}
	if cheaterPasses != 1 {
		t.Errorf("dedup cheater passed %d/3 replica audits, want exactly 1 (replica 0)", cheaterPasses)
	}
}

func TestRepairReplicated(t *testing.T) {
	nw, client, providers := storageWorld(t, 19, 6, 1<<20)
	data := mkData(20, 2000)
	var m *Manifest
	var pl *Placement
	client.Upload(data, 512, refs(providers[:3]), 3, func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()

	// Provider 0 dies; owner notices (via audit) and repairs onto the pool.
	providers[0].Node().Crash()
	for _, id := range m.Chunks {
		pl.Remove(id, providers[0].Ref())
	}
	if pl.MinRedundancy(m) != 2 {
		t.Fatalf("redundancy after death = %d", pl.MinRedundancy(m))
	}
	var restored int
	var repErr error
	client.Repair(m, pl, refs(providers), func(n int, err error) { restored, repErr = n, err })
	nw.RunAll()
	if repErr != nil {
		t.Fatal(repErr)
	}
	if restored != len(m.Chunks) {
		t.Errorf("restored %d copies, want %d", restored, len(m.Chunks))
	}
	if pl.MinRedundancy(m) != 3 {
		t.Errorf("redundancy after repair = %d", pl.MinRedundancy(m))
	}
	// Data still downloads.
	var got []byte
	client.Download(m, pl, func(d []byte, err error) { got = d })
	nw.RunAll()
	if !bytes.Equal(got, data) {
		t.Error("download after repair failed")
	}
}

func TestRepairErasureRebuildsLostShards(t *testing.T) {
	nw, client, providers := storageWorld(t, 21, 8, 1<<20)
	data := mkData(22, 4000)
	var m *Manifest
	var pl *Placement
	client.UploadErasure(data, 4, 2, refs(providers[:6]), func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()

	// Two providers die: their shards are lost.
	dead := []*Provider{providers[0], providers[3]}
	for _, d := range dead {
		d.Node().Crash()
		for _, id := range m.Chunks {
			pl.Remove(id, d.Ref())
		}
	}
	var restored int
	var repErr error
	client.Repair(m, pl, refs(providers[6:]), func(n int, err error) { restored, repErr = n, err })
	nw.RunAll()
	if repErr != nil {
		t.Fatal(repErr)
	}
	if restored != 2 {
		t.Errorf("restored = %d shards, want 2", restored)
	}
	if pl.MinRedundancy(m) != 1 {
		t.Errorf("min redundancy = %d", pl.MinRedundancy(m))
	}
	// Now even with two more deaths the object survives.
	providers[1].Node().Crash()
	providers[4].Node().Crash()
	var got []byte
	var dlErr error
	client.Download(m, pl, func(d []byte, err error) { got, dlErr = d, err })
	nw.RunAll()
	if dlErr != nil || !bytes.Equal(got, data) {
		t.Errorf("download after erasure repair failed: %v", dlErr)
	}
}

func TestRepairNoopWhenHealthy(t *testing.T) {
	nw, client, providers := storageWorld(t, 23, 3, 1<<20)
	var m *Manifest
	var pl *Placement
	client.Upload(mkData(24, 500), 0, refs(providers), 3, func(mm *Manifest, pp *Placement, err error) { m, pl = mm, pp })
	nw.RunAll()
	var restored = -1
	client.Repair(m, pl, refs(providers), func(n int, err error) { restored = n })
	nw.RunAll()
	if restored != 0 {
		t.Errorf("healthy repair restored %d", restored)
	}
}

// Property: sealing twice round-trips for arbitrary data and parameters.
func TestSealProperty(t *testing.T) {
	f := func(data []byte, provider uint8, replica uint8) bool {
		s := Seal(data, simnet.NodeID(provider), int(replica))
		return bytes.Equal(Seal(s, simnet.NodeID(provider), int(replica)), data) ||
			(len(data) == 0 && s == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProviderAccessors(t *testing.T) {
	nw, client, providers := storageWorld(t, 63, 1, 4096)
	p := providers[0]
	p.SetPrice(7)
	if p.price != 7 || p.capacity != 4096 || p.Used() != 0 {
		t.Error("accessors wrong")
	}
	client.Upload(mkData(64, 1000), 0, refs(providers), 1, func(*Manifest, *Placement, error) {})
	nw.RunAll()
	if p.Used() != 1000 {
		t.Errorf("used = %d", p.Used())
	}
	if ModeReplicate.String() != "replicate" || ModeErasure.String() != "erasure" || PlacementMode(9).String() != "unknown" {
		t.Error("mode strings")
	}
	if NewPlacement().String() == "" {
		t.Error("placement string")
	}
}

// TestPutRetriesAcrossHealedPartition is the regression pin for the old
// bespoke single-retry the resilience layer replaced: a put whose first
// transmission is swallowed by a network partition must still complete once
// the partition heals, because the layer's timeout-driven retransmit path
// re-issues it. The naive fixed-timeout client would report a failed
// placement here.
func TestPutRetriesAcrossHealedPartition(t *testing.T) {
	nw := simnet.New(21)
	clientNode := nw.AddNode()
	client := NewClient(clientNode, 30*time.Second, resil.Defaults())
	provider := NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 20})
	data := mkData(22, 1000)

	// The put's first transmission launches into a partition separating
	// client and provider; the partition heals just after the 1s initial
	// RTO expires, so the first backoff retry (~1.1s) crosses a healthy
	// network.
	nw.Partition([]simnet.NodeID{clientNode.ID()}, []simnet.NodeID{provider.Ref().Node})
	clientNode.After(1050*time.Millisecond, nw.Heal)

	var m *Manifest
	var pl *Placement
	var upErr error
	client.Upload(data, 0, []ProviderRef{provider.Ref()}, 1, func(mm *Manifest, pp *Placement, err error) {
		m, pl, upErr = mm, pp, err
	})
	nw.RunAll()
	if upErr != nil {
		t.Fatalf("put did not survive the healed partition: %v", upErr)
	}
	if pl.Count(m.Chunks[0]) != 1 {
		t.Fatalf("placement count = %d, want 1", pl.Count(m.Chunks[0]))
	}

	// The stored copy is real: the object downloads back intact.
	var got []byte
	var dlErr error
	client.Download(m, pl, func(d []byte, err error) { got, dlErr = d, err })
	nw.RunAll()
	if dlErr != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after retried put: err=%v match=%v", dlErr, bytes.Equal(got, data))
	}
}

// FailedHolders returns the distinct providers that failed at least one
// challenge.
func (r *AuditReport) FailedHolders() []ProviderRef {
	seen := map[simnet.NodeID]bool{}
	var out []ProviderRef
	for _, res := range r.Results {
		if !res.OK && !seen[res.Holder.Node] {
			seen[res.Holder.Node] = true
			out = append(out, res.Holder)
		}
	}
	return out
}

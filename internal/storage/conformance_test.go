package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/simnet/fault"
	"repro/internal/storage/chunker"
)

// storageConformanceRun uploads a file before the scenario starts, drives
// the provider fleet through the fault window, and checks post-recovery
// health: audits must pass and the download must round-trip. Returns
// (auditPassRatio, downloadOK).
func storageConformanceRun(t testing.TB, seed int64, sc fault.Scenario) (float64, bool) {
	t.Helper()
	const horizon = 30 * time.Minute
	nw, client, providers := storageWorld(t, seed, 6, 1<<20)
	refs := make([]ProviderRef, len(providers))
	eligible := make([]simnet.NodeID, len(providers))
	for i, p := range providers {
		refs[i] = p.Ref()
		eligible[i] = p.Node().ID()
	}

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var (
		manifest  *Manifest
		placement *Placement
	)
	client.Upload(data, 512, refs, 3, func(m *Manifest, pl *Placement, err error) {
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		manifest, placement = m, pl
	})
	nw.Run(nw.Now() + time.Minute)
	if manifest == nil {
		t.Fatal("upload did not complete in the setup window")
	}

	// The client is the anchor; every provider is fault-eligible. The
	// scenario clock starts after the upload has settled.
	start := nw.Now()
	sc.Build(seed, eligible, horizon).ApplyAt(nw, start)
	nw.Run(start + horizon)

	// Post-recovery: all providers are back up, so every challenge must be
	// answered from intact storage.
	var report *AuditReport
	client.Audit(manifest, placement, 10*time.Second, func(r *AuditReport) { report = r })
	nw.Run(nw.Now() + time.Minute)
	if report == nil || len(report.Results) == 0 {
		t.Fatal("audit did not complete")
	}

	var got []byte
	var downloadErr error
	client.Download(manifest, placement, func(b []byte, err error) { got, downloadErr = b, err })
	nw.Run(nw.Now() + time.Minute)

	ratio := float64(report.Passed()) / float64(len(report.Results))
	ok := downloadErr == nil && bytes.Equal(got, data)
	return ratio, ok
}

// TestStorageRecoveryConformance: after the fault window closes, audits
// must pass in full and the original bytes must still be downloadable —
// crashes and partitions must not silently lose replicated chunks.
func TestStorageRecoveryConformance(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ratio, ok := storageConformanceRun(t, 405, sc)
			if ratio < 1.0 {
				t.Errorf("audit pass ratio %.3f after recovery window, want 1.0", ratio)
			}
			if !ok {
				t.Error("post-recovery download failed or returned wrong bytes")
			}
		})
	}
}

// TestStorageConformanceDeterministic: the audit outcome is a pure function
// of the seed.
func TestStorageConformanceDeterministic(t *testing.T) {
	sc := fault.RollingChurn()
	a1, ok1 := storageConformanceRun(t, 55, sc)
	a2, ok2 := storageConformanceRun(t, 55, sc)
	if a1 != a2 || ok1 != ok2 {
		t.Errorf("same seed diverged: (%v,%v) vs (%v,%v)", a1, ok1, a2, ok2)
	}
}

// storageMidFaultRun measures availability during the fault window: a
// resilient client downloads the pre-uploaded object at a fixed cadence
// while providers crash, partition, and degrade, and a probe counts as
// available iff the full object round-trips within the 10s SLA.
func storageMidFaultRun(t testing.TB, seed int64, sc fault.Scenario, rcfg resil.Config) float64 {
	t.Helper()
	const (
		nProviders = 6
		nProbes    = 8
		horizon    = 30 * time.Minute
		sla        = 10 * time.Second
	)
	nw := simnet.New(seed)
	client := NewClient(nw.AddNode(), 30*time.Second, rcfg)
	providers := make([]*Provider, nProviders)
	refs := make([]ProviderRef, nProviders)
	eligible := make([]simnet.NodeID, nProviders)
	for i := range providers {
		providers[i] = NewProvider(nw.AddNode(), ProviderConfig{Capacity: 1 << 20})
		refs[i] = providers[i].Ref()
		eligible[i] = providers[i].Node().ID()
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var manifest *Manifest
	var placement *Placement
	client.Upload(data, 512, refs, 3, func(m *Manifest, pl *Placement, err error) {
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		manifest, placement = m, pl
	})
	nw.Run(nw.Now() + time.Minute)
	if manifest == nil {
		t.Fatal("upload did not complete in the setup window")
	}

	start := nw.Now()
	plan := sc.Build(seed, eligible, horizon)
	plan.ApplyAt(nw, start)
	ws, we := plan.Start(), plan.End()
	if we <= ws { // clean plan: probe the whole horizon
		ws, we = 0, horizon
	}

	ok, total := 0, 0
	for i := 0; i < nProbes; i++ {
		total++
		nw.Schedule(start+ws+time.Duration(i)*(we-ws)/nProbes, func() {
			launched := nw.Now()
			client.Download(manifest, placement, func(b []byte, err error) {
				if err == nil && bytes.Equal(b, data) && nw.Now()-launched <= sla {
					ok++
				}
			})
		})
	}
	nw.Run(start + horizon)
	return float64(ok) / float64(total)
}

// storageTieredCDCRun is storageConformanceRun on the tiered
// configuration: providers run a memory tier over GC-enabled disk, the
// upload is content-defined, and the client pins its repair sources.
func storageTieredCDCRun(t testing.TB, seed int64, sc fault.Scenario) (float64, bool) {
	t.Helper()
	const horizon = 30 * time.Minute
	nw := simnet.New(seed)
	client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	client.EnableRepairPinning()
	providers := make([]*Provider, 6)
	refs := make([]ProviderRef, len(providers))
	eligible := make([]simnet.NodeID, len(providers))
	for i := range providers {
		providers[i] = NewProvider(nw.AddNode(), ProviderConfig{
			Capacity:    1 << 20,
			MemCapacity: 4 << 10,
			GC:          true,
			Metrics:     true,
		})

		refs[i] = providers[i].Ref()
		eligible[i] = providers[i].Node().ID()
	}

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	ck, err := chunker.New(chunker.Defaults(512))
	if err != nil {
		t.Fatal(err)
	}
	var (
		manifest  *Manifest
		placement *Placement
	)
	client.UploadCDC(data, ck, refs, 3, func(m *Manifest, pl *Placement, err error) {
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		manifest, placement = m, pl
	})
	nw.Run(nw.Now() + time.Minute)
	if manifest == nil {
		t.Fatal("upload did not complete in the setup window")
	}
	if len(manifest.ChunkLens) != len(manifest.Chunks) {
		t.Fatalf("CDC manifest has %d chunk lengths for %d chunks", len(manifest.ChunkLens), len(manifest.Chunks))
	}

	start := nw.Now()
	sc.Build(seed, eligible, horizon).ApplyAt(nw, start)
	nw.Run(start + horizon)

	var report *AuditReport
	client.Audit(manifest, placement, 10*time.Second, func(r *AuditReport) { report = r })
	nw.Run(nw.Now() + time.Minute)
	if report == nil || len(report.Results) == 0 {
		t.Fatal("audit did not complete")
	}

	var got []byte
	var downloadErr error
	client.Download(manifest, placement, func(b []byte, err error) { got, downloadErr = b, err })
	nw.Run(nw.Now() + time.Minute)

	ratio := float64(report.Passed()) / float64(len(report.Results))
	ok := downloadErr == nil && bytes.Equal(got, data)
	return ratio, ok
}

// TestStorageTieredCDCConformance: the fault battery holds on the tiered
// store with content-defined uploads — variable-length chunks audit and
// download exactly like fixed ones, through crashes, corruption, and
// churn.
func TestStorageTieredCDCConformance(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.CorruptTenPct(), fault.RollingChurn()} {
		t.Run(sc.Name, func(t *testing.T) {
			ratio, ok := storageTieredCDCRun(t, 417, sc)
			if ratio < 1.0 {
				t.Errorf("audit pass ratio %.3f after recovery window, want 1.0", ratio)
			}
			if !ok {
				t.Error("post-recovery download failed or returned wrong bytes")
			}
		})
	}
}

// TestGCNeverEvictsRepairSource: the regression the repair-pinning RPCs
// exist to prevent. A repair's restore source — here the last surviving
// copy of every chunk — sits on a GC-enabled provider; the moment the
// repair's pins land, the test floods that provider's store with enough
// unique chunks to trigger collection repeatedly. GC must reclaim the
// filler pressure yet never touch the pinned sources, the repair must
// restore full redundancy from them, and the pins must be gone once it
// finishes.
func TestGCNeverEvictsRepairSource(t *testing.T) {
	nw := simnet.New(419)
	client := NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	client.EnableRepairPinning()
	mk := func() *Provider {
		return NewProvider(nw.AddNode(), ProviderConfig{Capacity: 16 << 10, GC: true})
	}
	src, dead, fresh := mk(), mk(), mk()

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 17)
	}
	var manifest *Manifest
	var placement *Placement
	client.Upload(data, 512, []ProviderRef{src.Ref(), dead.Ref()}, 2, func(m *Manifest, pl *Placement, err error) {
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		manifest, placement = m, pl
	})
	nw.Run(nw.Now() + time.Minute)
	if manifest == nil {
		t.Fatal("upload did not complete")
	}

	// Lose one replica of everything; the audit prunes the dead holder so
	// src holds the only surviving copies.
	dead.Node().Crash()
	client.Audit(manifest, placement, 5*time.Second, func(r *AuditReport) {
		for _, res := range r.Results {
			if !res.OK {
				placement.Remove(manifest.Chunks[res.ChunkIndex], res.Holder)
			}
		}
	})
	nw.Run(nw.Now() + time.Minute)
	for _, id := range manifest.Chunks {
		if placement.Count(id) != 1 {
			t.Fatalf("chunk holder count %d after audit prune, want 1", placement.Count(id))
		}
	}

	restored := -1
	client.Repair(manifest, placement, []ProviderRef{src.Ref(), fresh.Ref()}, func(n int, err error) {
		if err != nil {
			t.Errorf("repair: %v", err)
		}
		restored = n
	})
	// The GC storm: poll until the repair's pins have landed on src, then
	// slam its store with unique filler until collection has provably run
	// — the pinned sources must all survive it.
	stormed := false
	var poll func()
	poll = func() {
		if restored >= 0 {
			return // repair finished before the pins were observed — rerun logic below fails the test
		}
		if !src.Store().Pinned(manifest.Chunks[0]) {
			nw.After(time.Millisecond, poll)
			return
		}
		before := src.Store().GCReclaimedBytes()
		for i := 0; i < 64; i++ {
			filler := make([]byte, 512)
			nw.Rand().Read(filler)
			src.Store().Put(cryptoutil.SumHash(filler), filler)
		}
		if src.Store().GCReclaimedBytes() == before {
			t.Error("filler storm did not trigger GC — the test applied no pressure")
		}
		for ci, id := range manifest.Chunks {
			if !src.Store().Has(id) {
				t.Errorf("chunk %d: GC evicted the pinned repair source", ci)
			}
		}
		stormed = true
	}
	nw.After(0, poll)
	nw.Run(nw.Now() + time.Minute)

	if !stormed {
		t.Fatal("repair completed before its pins were observed; storm never ran")
	}
	if restored != len(manifest.Chunks) {
		t.Fatalf("repair restored %d chunks, want %d", restored, len(manifest.Chunks))
	}
	for ci, id := range manifest.Chunks {
		if src.Store().Pinned(id) {
			t.Errorf("chunk %d still pinned on src after repair finished", ci)
		}
		if !fresh.store.Has(id) {
			t.Errorf("chunk %d not re-replicated onto the fresh provider", ci)
		}
	}
	var got []byte
	var gotErr error
	client.Download(manifest, placement, func(b []byte, err error) { got, gotErr = b, err })
	nw.Run(nw.Now() + time.Minute)
	if gotErr != nil || !bytes.Equal(got, data) {
		t.Error("post-repair download failed or returned wrong bytes")
	}
}

// TestStorageMidFaultAvailability: with the resilience layer on, a
// 3-replica object must stay downloadable within the SLA at the
// per-scenario floor while the provider fleet is actively under fault —
// holder failover plus transport retries are the mechanisms under test.
func TestStorageMidFaultAvailability(t *testing.T) {
	floors := map[string]float64{
		"clean":           1.0,
		"lossy-edge":      0.75,
		"flash-partition": 0.5,
		"rolling-churn":   0.5,
		"corrupt-10pct":   0.75,
	}
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			got := storageMidFaultRun(t, 408, sc, resil.Defaults())
			if floor := floors[sc.Name]; got < floor {
				t.Errorf("mid-fault download availability %.2f below floor %.2f", got, floor)
			}
			t.Logf("mid-fault availability %.2f", got)
		})
	}
}

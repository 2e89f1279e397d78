package experiments

import (
	"time"

	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// storageAttacks is experiment X6: one provider per cheating strategy
// faces each implemented proof mechanism; the table reports which proofs
// catch which attacks. §3.3: proof-of-replication and friends exist to
// defeat "Sybil Attacks … Outsourcing Attacks … Generation Attacks".
func storageAttacks(env Env) *Table {
	t := &Table{Headers: []string{"Provider Behaviour", "Proof-of-Storage", "Proof-of-Retrievability", "Proof-of-Replication (3 replicas)"}}
	behaviours := []struct {
		name  string
		cheat storage.CheatMode
	}{
		{"honest", storage.Honest},
		{"drop after ack", storage.DropAfterAck},
		{"corrupt bits", storage.CorruptBits},
		{"outsource to accomplice", storage.OutsourceFetch},
		{"dedup sealed replicas", storage.DedupReplicas},
	}
	for _, b := range behaviours {
		pos, ret, rep := storageAttackRun(env, b.cheat)
		t.Add(b.name, verdict(pos, b.cheat == storage.Honest), verdict(ret, b.cheat == storage.Honest), verdict(rep, b.cheat == storage.Honest))
	}
	return t
}

// verdict renders an audit pass/fail from the verifier's perspective.
func verdict(passed bool, honest bool) string {
	switch {
	case passed && honest:
		return "pass (correct)"
	case passed && !honest:
		return "PASS (missed!)"
	case !passed && honest:
		return "FAIL (false alarm!)"
	default:
		return "caught"
	}
}

// storageAttackRun subjects one provider to all three proof mechanisms and
// reports whether it passed each (replication = all 3 replicas pass).
func storageAttackRun(env Env, cheat storage.CheatMode) (posPass, retPass, repPass bool) {
	nw := env.Net()
	// Slow links so the outsourcing round trip is visible to the deadline.
	nw.SetDefaultProfile(simnet.LinkProfile{Latency: 40 * time.Millisecond, UplinkBps: 20e6, DownlinkBps: 20e6})
	client := storage.NewClient(nw.AddNode(), 30*time.Second, resil.Config{})
	provider := storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 30, Cheat: cheat})
	accomplice := storage.NewProvider(nw.AddNode(), storage.ProviderConfig{Capacity: 1 << 30})
	provider.SetAccomplice(accomplice.Node().ID())

	data := make([]byte, 2048)
	nw.Rand().Read(data)
	chunk := storage.NewChunk(data)
	sentinels, err := storage.MakeSentinels(nw.Rand(), data, 4)
	if err != nil {
		panic(err)
	}

	// Plain + accomplice copies, and sealed replicas.
	var m *storage.Manifest
	var pl *storage.Placement
	client.Upload(data, 0, []storage.ProviderRef{provider.Ref(), accomplice.Ref()}, 2,
		func(mm *storage.Manifest, pp *storage.Placement, err error) { m, pl = mm, pp })
	for r := 0; r < 3; r++ {
		client.PutSealed(chunk.ID, data, provider.Ref(), r, func(bool) {})
	}
	nw.Run(nw.Now() + time.Minute)

	// The audit deadline admits one honest round trip (~160 ms) but not the
	// outsourcer's nested fetch (~320 ms: the challenge RTT plus a hidden
	// fetch RTT to the accomplice).
	deadline := 240 * time.Millisecond

	// Proof-of-storage via the client's audit (only the suspect's results).
	client.Audit(m, pl, deadline, func(r *storage.AuditReport) {
		posPass = true
		for _, res := range r.Results {
			if res.Holder.Node == provider.Node().ID() && !res.OK {
				posPass = false
			}
		}
	})
	nw.Run(nw.Now() + time.Minute)

	// Proof-of-retrievability.
	client.RetAudit(chunk.ID, provider.Ref(), sentinels[0], deadline, func(ok bool) { retPass = ok })
	nw.Run(nw.Now() + time.Minute)

	// Proof-of-replication: all three sealed replicas must answer.
	passes := 0
	for r := 0; r < 3; r++ {
		root := storage.SealedRoot(data, provider.Node().ID(), r)
		client.RepAudit(chunk.ID, root, len(data), provider.Ref(), r, deadline, func(ok bool) {
			if ok {
				passes++
			}
		})
	}
	nw.Run(nw.Now() + time.Minute)
	repPass = passes == 3
	_ = pl
	return posPass, retPass, repPass
}

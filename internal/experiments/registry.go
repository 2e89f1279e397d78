package experiments

import (
	"fmt"

	"repro/internal/simnet/fault"
)

// Experiment is one registered, runnable experiment at the size the
// registry fixes. Run produces the single-seed table; Multi, when non-nil,
// is the multi-seed aggregated variant (deterministic experiments leave
// it nil).
type Experiment struct {
	ID   string
	Desc string
	Run  func(seed int64) fmt.Stringer
	// Multi aggregates over a batch of seeds on `workers` parallel trial
	// runners; nil means the experiment is deterministic and -trials is
	// ignored.
	Multi func(seeds []int64, workers int) fmt.Stringer
}

// Registry returns every experiment in presentation order, each generated
// from its descriptor; cmd/feudalism drives them. The tiny scale is reached
// through the descriptors themselves, by the registry tests and by
// `feudalism bench -scale tiny`.
func Registry() []Experiment {
	var exps []Experiment
	for _, d := range descriptors() {
		exps = append(exps, d.experiment())
	}
	return exps
}

// Find returns the registered experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// descriptors lists every experiment in presentation order. Each entry's
// sizes table (full scale, tiny) sits beside its core in its own file.
func descriptors() []descriptor {
	sp := flashSpecFor(false)
	return []descriptor{
		{
			id: "naming-throughput", desc: "X1: registration latency/throughput, centralized vs blockchain",
			title: titled(namingSizes, func(n int) string {
				return fmt.Sprintf("X1: name registration, %d names per scheme (latency = submit→resolvable)", n)
			}),
			table: sized(namingSizes, namingTable),
		},
		{
			id: "fifty-one", desc: "X2: private-branch (51%) attack success vs hashrate share",
			title: titled(fiftyOneSizes, func(s raceSize) string {
				return fmt.Sprintf("X2: private-branch (51%%) attack, horizon ≈%d blocks, %d trials/share", s.horizon, s.trials)
			}),
			rowHeader: "Attacker Hashrate Share",
			cell:      []string{"%.0f%%", "%+.1f"},
			matrix:    sized(fiftyOneSizes, fiftyOneMatrix),
		},
		{
			id: "comm-availability", desc: "X3: message deliverability vs failed servers, four models",
			title: titled(commSizes, func(s commSize) string {
				return fmt.Sprintf("X3: deliverability vs fraction of failed servers (S=%d, 1 user/server)", s.servers)
			}),
			rowHeader: "Model",
			cell:      []string{"%.2f"},
			matrix:    sized(commSizes, commAvailabilityMatrix),
		},
		{
			id: "social-p2p", desc: "X4: social-P2P delivery vs friend degree and uptime",
			title: titled(socialSizes, func(s socialSize) string {
				return fmt.Sprintf("X4: social-P2P delivery to friends within 15min (N=%d, anti-entropy 60s)", s.users)
			}),
			rowHeader: "Mean Degree",
			multi:     []string{"%.2f"},
			matrix: sized(socialSizes, func(seed int64, s socialSize) Matrix {
				return socialP2PMatrix(seed, s, 1)
			}),
			table: sized(socialSizes, func(seed int64, s socialSize) *Table {
				return socialP2PMatrix(seed, s, socialTrials).render("Mean Degree", nil, []string{"%.2f"})
			}),
		},
		{
			id: "metadata", desc: "X4b: per-message metadata exposure by model",
			title: titled(metadataSizes, func(servers int) string {
				return fmt.Sprintf("X4b: metadata exposure per message (federation of %d servers)", servers)
			}),
			table: sized(metadataSizes, metadataExposure),
		},
		{
			id: "storage-durability", desc: "X5: object survival under permanent provider failures",
			title: titled(durabilitySizes, func(s durabilitySize) string {
				return fmt.Sprintf("X5: object survival after %v with %.0f%% of %d providers dying permanently (%d objects)",
					s.horizon, s.dead*100, s.providers, s.objects)
			}),
			rowHeader: "Scheme",
			multi:     []string{"%.0f%%", "%.0f%%", "%.0f"},
			matrix:    sized(durabilitySizes, durabilityMatrix),
			table:     sized(durabilitySizes, durabilityTable),
		},
		{
			id: "storage-attacks", desc: "X6: proof mechanisms vs provider attacks",
			title: func(bool) string { return "X6: which proof mechanism catches which provider attack" },
			table: func(seed int64, _ bool) *Table { return storageAttacks(seed) },
		},
		{
			id: "incentives", desc: "E2 demo: every Table 2 incentive scheme executed",
			title: func(bool) string {
				return "E2 demo: each surveyed incentive scheme executed against honest and cheating providers"
			},
			table: func(seed int64, _ bool) *Table { return incentiveDemos(seed) },
		},
		{
			id: "hostless-web", desc: "X7: website availability, client-server vs hostless",
			title: titled(hostlessSizes, func(visitors int) string {
				return fmt.Sprintf("X7: website availability with publisher death at T/2 (%d visitors over 2h)", visitors)
			}),
			rowHeader: "Architecture",
			cell:      []string{"%.0f%%"},
			matrix:    sized(hostlessSizes, hostlessMatrix),
		},
		{
			id: "usenet-load", desc: "X8: per-server cost growth, Usenet flood vs federated-home",
			title: titled(usenetSizes, func(s usenetSize) string {
				return fmt.Sprintf("X8: per-server stored bytes as the network grows (%d posts/author, %dB each, follow 4 remote authors)",
					s.posts, s.bytes)
			}),
			table: sized(usenetSizes, usenetTable),
		},
		{
			id: "abuse", desc: "X9: spam exposure vs moderation coverage, three models",
			title: titled(abuseSizes, func(s abuseSize) string {
				return fmt.Sprintf("X9: fraction of users exposed to spam vs policy coverage (N=%d users)", s.users)
			}),
			table: sized(abuseSizes, func(seed int64, s abuseSize) *Table {
				return abuseMatrix(seed, s).render("Model", nil, []string{"%.2f"})
			}),
		},
		{
			id: "selfish-mining", desc: "X10: revenue share, honest vs selfish withholding strategy",
			title: titled(selfishSizes, func(s raceSize) string {
				return fmt.Sprintf("X10: attacker revenue share, honest vs selfish strategy (γ=0, %d blocks × %d trials)",
					s.horizon, s.trials)
			}),
			rowHeader: "Hashrate Share",
			multi:     []string{"%.2f"},
			matrix:    sized(selfishSizes, selfishMatrix),
			table:     sized(selfishSizes, selfishTable),
		},
		{
			id: "dht-quality", desc: "X11: DHT lookups on device-grade vs datacenter infrastructure",
			title: titled(dhtSizes, func(s dhtSize) string {
				return fmt.Sprintf("X11: DHT lookups on device-grade vs datacenter infrastructure (%d peers, %d lookups)", s.peers, s.lookups)
			}),
			rowHeader: "Attachment / Churn",
			multi:     []string{"%.0f%%", "%.0fms", "%.0fms"},
			matrix: sized(dhtSizes, func(seed int64, s dhtSize) Matrix {
				return dhtQualityMatrix(seed, s, 1)
			}),
			table: sized(dhtSizes, dhtQualityTable),
		},
		{
			id: "wot-sybil", desc: "X12: web-of-trust Sybil amplification vs ring size",
			title: titled(wotSizes, func(s wotSize) string {
				return fmt.Sprintf("X12: WoT Sybil amplification (%d honest members, verify depth 6)", s.honest)
			}),
			table: sized(wotSizes, wotSybilTable),
		},
		{
			id: "ledger-growth", desc: "X13: endless-ledger growth vs SPV and compaction",
			title: titled(ledgerSizes, func(s ledgerSize) string {
				return fmt.Sprintf("X13: endless-ledger growth under load (%d tx/block, 10s blocks)", s.txPerBlock)
			}),
			table: sized(ledgerSizes, ledgerTable),
		},
		{
			id: "sensitivity", desc: "E3 sensitivity: perturbing the §4 feasibility constants",
			title: func(bool) string { return "E3 sensitivity: perturbing one §4 constant at a time" },
			table: func(int64, bool) *Table { return feasibilitySensitivity() },
		},
		{
			id: "x14", desc: "X14: recovery matrix, subsystem × fault scenario",
			title: titles("X14: recovery matrix — post-fault success and time-to-recover per subsystem × scenario",
				"X14 (tiny): recovery matrix"),
			rowHeader: "Subsystem",
			cell:      []string{"%.0f%%", "@%.1fm"},
			multi:     []string{"%.0f%%", "%.1fm"},
			tiny:      []string{"%.1f"},
			groups:    scenarioNames(fault.Scenarios()),
			matrix:    recoveryMatrix,
		},
		{
			id: "x15", desc: "X15: scale sweep, subsystem × population up to 10k nodes",
			rowHeader:  "Subsystem",
			multiTitle: "X15: scale sweep — convergence %, messages/node per subsystem × population",
			multi:      []string{"%.1f%%", "%.0f"},
			matrix:     scaleMatrix,
			table:      func(seed int64, tiny bool) *Table { return ScaleSweep(seed, tiny, nil) },
		},
		{
			id: "x16", desc: "X16: resilience matrix, subsystem × fault scenario, naive vs adaptive transport",
			title: titles("X16: resilience matrix — mid-fault availability, p95, traffic, recovery per subsystem×mode × scenario",
				"X16 (tiny): resilience matrix"),
			rowHeader: "Subsystem/mode",
			cell:      []string{"%.0f%%", "p95=%.1fs", "%.0fm/n", "@%.1fm"},
			multi:     []string{"%.0f%%", "%.2f", "%.0f", "%.1f"},
			tiny:      []string{"%.1f"},
			groups:    scenarioNames(resilScenarios()),
			matrix:    resilienceMatrix,
		},
		{
			id: "x17", desc: "X17: overlapping-upload dedup and storage tiering, fixed vs content-defined chunking",
			title: titles("X17: overlapping uploads — dedup ratio, tier hits, repair and GC volume per workload × chunking",
				"X17 (tiny): overlapping-upload dedup"),
			rowHeader: "Workload/chunking",
			cell:      []string{"%.2f×", "%.0f%%", "%.0f", "%.0f"},
			multi:     []string{"%.2f", "%.0f", "%.0f", "%.0f"},
			matrix:    dedupMatrix,
		},
		x18Exp("flash"),
		{
			id: "x19", desc: "X19: flash-crowd replay, static-K vs adaptive popularity-driven replication with nearest-replica routing",
			title: titles(fmt.Sprintf(
				"X19: flash-crowd replay — static K=%d vs adaptive replication (floor %d, cap %d) on %d home-link providers",
				sp.k, sp.k, x19Cfg(sp).Cap, sp.providers),
				"X19 (tiny): flash-crowd replay, static-K vs adaptive replication"),
			multiTitle: "X19: flash-crowd replay — static-K vs adaptive replication with nearest-replica routing",
			rowHeader:  "Arm",
			cell:       []string{"%.1f%%", "%.2fs", "%.1f%%", "%.0f", "%.0f"},
			multi:      []string{"%.1f", "%.2f", "%.1f", "%.0f", "%.0f"},
			matrix:     replicationMatrix,
		},
		{
			id: "x20", desc: "X20: flash-crowd saturation, naive vs overload-controlled serving on feudal origin and replic swarm",
			title: titles(fmt.Sprintf(
				"X20: flash-crowd saturation — naive vs overload-controlled serving, feudal origin and %d-provider replic swarm",
				sp.providers),
				"X20 (tiny): flash-crowd saturation, naive vs overload-controlled serving"),
			multiTitle: "X20: flash-crowd saturation — naive vs overload-controlled serving",
			rowHeader:  "Arm",
			cell:       []string{"%.1f%%", "%.1f%%", "%.2fs", "%.2fs", "%.0f", "%.0f"},
			multi:      []string{"%.1f", "%.1f", "%.2f", "%.2f", "%.0f", "%.0f"},
			matrix:     overloadMatrix,
		},
	}
}

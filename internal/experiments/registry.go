package experiments

import (
	"fmt"
	"time"
)

// Experiment is one registered, runnable experiment. Run produces the
// single-seed table; Multi, when non-nil, is the multi-seed aggregated
// variant (deterministic experiments leave it nil); Tiny is a scaled-down
// run used by the test suite to exercise every entry quickly.
type Experiment struct {
	ID   string
	Desc string
	Run  func(seed int64) fmt.Stringer
	// Multi aggregates over a batch of seeds on `workers` parallel trial
	// runners; nil means the experiment is deterministic and -trials is
	// ignored.
	Multi func(seeds []int64, workers int) fmt.Stringer
	// Tiny is the same experiment at test scale. Never nil.
	Tiny func(seed int64) fmt.Stringer
}

// Registry returns every experiment in presentation order. cmd/feudalism
// drives Run/Multi; the registry tests drive Tiny. X14–X20 share one shape
// and are generated from their descriptors (matrixExps).
func Registry() []Experiment {
	exps := []Experiment{
		{
			ID: "naming-throughput", Desc: "X1: registration latency/throughput, centralized vs blockchain",
			Run:  func(seed int64) fmt.Stringer { return NamingSchemes(seed, 20) },
			Tiny: func(seed int64) fmt.Stringer { return NamingSchemes(seed, 3) },
		},
		{
			ID: "fifty-one", Desc: "X2: private-branch (51%) attack success vs hashrate share",
			Run: func(seed int64) fmt.Stringer { return FiftyOnePercent(seed, 20, 18) },
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return FiftyOnePercentMulti(seeds, workers, 20, 18)
			},
			Tiny: func(seed int64) fmt.Stringer { return FiftyOnePercent(seed, 2, 6) },
		},
		{
			ID: "comm-availability", Desc: "X3: message deliverability vs failed servers, four models",
			Run: func(seed int64) fmt.Stringer {
				return CommAvailability(seed, 10, []float64{0, 0.1, 0.2, 0.3, 0.5})
			},
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return CommAvailabilityMulti(seeds, workers, 10, []float64{0, 0.1, 0.2, 0.3, 0.5})
			},
			Tiny: func(seed int64) fmt.Stringer { return CommAvailability(seed, 3, []float64{0, 0.5}) },
		},
		{
			ID: "social-p2p", Desc: "X4: social-P2P delivery vs friend degree and uptime",
			Run: func(seed int64) fmt.Stringer {
				return SocialP2P(seed, 30, []int{2, 4, 8}, []float64{0.5, 0.75, 0.95})
			},
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return SocialP2PMulti(seeds, workers, 30, []int{2, 4, 8}, []float64{0.5, 0.75, 0.95})
			},
			Tiny: func(seed int64) fmt.Stringer { return SocialP2P(seed, 6, []int{2}, []float64{0.75}) },
		},
		{
			ID: "metadata", Desc: "X4b: per-message metadata exposure by model",
			Run:  func(seed int64) fmt.Stringer { return MetadataExposureTable(10) },
			Tiny: func(seed int64) fmt.Stringer { return MetadataExposureTable(3) },
		},
		{
			ID: "storage-durability", Desc: "X5: object survival under permanent provider failures",
			Run: func(seed int64) fmt.Stringer {
				return StorageDurability(seed, 20, 30, 6*time.Hour, 0.5)
			},
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return StorageDurabilityMulti(seeds, workers, 20, 30, 6*time.Hour, 0.5)
			},
			Tiny: func(seed int64) fmt.Stringer { return StorageDurability(seed, 3, 8, time.Hour, 0.5) },
		},
		{
			ID: "storage-attacks", Desc: "X6: proof mechanisms vs provider attacks",
			Run:  func(seed int64) fmt.Stringer { return StorageAttacks(seed) },
			Tiny: func(seed int64) fmt.Stringer { return StorageAttacks(seed) },
		},
		{
			ID: "incentives", Desc: "E2 demo: every Table 2 incentive scheme executed",
			Run:  func(seed int64) fmt.Stringer { return RunIncentiveDemos(seed) },
			Tiny: func(seed int64) fmt.Stringer { return RunIncentiveDemos(seed) },
		},
		{
			ID: "hostless-web", Desc: "X7: website availability, client-server vs hostless",
			Run: func(seed int64) fmt.Stringer { return HostlessWeb(seed, 40) },
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return HostlessWebMulti(seeds, workers, 40)
			},
			Tiny: func(seed int64) fmt.Stringer { return HostlessWeb(seed, 5) },
		},
		{
			ID: "usenet-load", Desc: "X8: per-server cost growth, Usenet flood vs federated-home",
			Run: func(seed int64) fmt.Stringer {
				return UsenetLoad(seed, []int{5, 10, 20, 40}, 20, 512)
			},
			Tiny: func(seed int64) fmt.Stringer { return UsenetLoad(seed, []int{3}, 4, 128) },
		},
		{
			ID: "abuse", Desc: "X9: spam exposure vs moderation coverage, three models",
			Run: func(seed int64) fmt.Stringer {
				return AbuseContainment(seed, 20, []float64{0, 0.25, 0.5, 0.75, 1})
			},
			Tiny: func(seed int64) fmt.Stringer { return AbuseContainment(seed, 5, []float64{0, 1}) },
		},
		{
			ID: "selfish-mining", Desc: "X10: revenue share, honest vs selfish withholding strategy",
			Run: func(seed int64) fmt.Stringer { return SelfishMining(seed, 12, 150) },
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return SelfishMiningMulti(seeds, workers, 12, 150)
			},
			Tiny: func(seed int64) fmt.Stringer { return SelfishMining(seed, 2, 20) },
		},
		{
			ID: "dht-quality", Desc: "X11: DHT lookups on device-grade vs datacenter infrastructure",
			Run: func(seed int64) fmt.Stringer { return DHTQuality(seed, 40, 40) },
			Multi: func(seeds []int64, workers int) fmt.Stringer {
				return DHTQualityMulti(seeds, workers, 40, 40)
			},
			Tiny: func(seed int64) fmt.Stringer { return DHTQuality(seed, 8, 6) },
		},
		{
			ID: "wot-sybil", Desc: "X12: web-of-trust Sybil amplification vs ring size",
			Run: func(seed int64) fmt.Stringer {
				return WoTSybil(seed, 12, []int{10, 50, 200, 1000})
			},
			Tiny: func(seed int64) fmt.Stringer { return WoTSybil(seed, 4, []int{10}) },
		},
		{
			ID: "ledger-growth", Desc: "X13: endless-ledger growth vs SPV and compaction",
			Run:  func(seed int64) fmt.Stringer { return LedgerGrowth(seed, 6, 20) },
			Tiny: func(seed int64) fmt.Stringer { return LedgerGrowth(seed, 2, 5) },
		},
		{
			ID: "sensitivity", Desc: "E3 sensitivity: perturbing the §4 feasibility constants",
			Run:  func(seed int64) fmt.Stringer { return FeasibilitySensitivity() },
			Tiny: func(seed int64) fmt.Stringer { return FeasibilitySensitivity() },
		},
	}
	for _, d := range matrixExps() {
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

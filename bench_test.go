// Root benchmark harness: one testing.B benchmark per paper table (E1–E3)
// and per experiment X1–X15 (X16–X20 have none), as indexed in DESIGN.md
// and EXPERIMENTS.md. Each times a reduced run under its own seeds and
// sizes — FiftyOnePercent(i*100+7, 8, 15) where the registry runs
// (seed, 20, 18), for example — and logs that run's table once. The logged
// tables are not the published artifacts: `feudalism experiment <id>` (or
// `feudalism table1|2|3`) regenerates those.
//
// Run everything with:
//
//	go test -bench . -benchmem
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/simnet"
)

// printOnce emits a table the first time a benchmark runs.
var printOnce sync.Map

func emit(b *testing.B, key string, table fmt.Stringer) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", table)
	}
}

// BenchmarkTable1Registry regenerates the paper's Table 1 (E1).
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		emit(b, "t1", t)
	}
}

// BenchmarkTable2Incentives regenerates Table 2 (E2) and executes every
// row's incentive scheme against live providers.
func BenchmarkTable2Incentives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, "t2", experiments.Table2())
		demo := experiments.RunIncentiveDemos(int64(i))
		emit(b, "t2demo", demo)
	}
}

// BenchmarkTable3Feasibility regenerates Table 3 (E3) from the §4 model.
func BenchmarkTable3Feasibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, "t3", experiments.Table3())
	}
}

// BenchmarkNamingSchemes is experiment X1: registration latency and
// throughput under the centralized registrar versus the blockchain scheme.
func BenchmarkNamingSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.NamingSchemes(int64(i+1), 12)
		emit(b, "x1", t)
	}
}

// BenchmarkFiftyOnePercent is experiment X2: private-branch attack success
// versus attacker hashrate share.
func BenchmarkFiftyOnePercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.FiftyOnePercent(int64(i*100+7), 8, 15)
		emit(b, "x2", t)
	}
}

// BenchmarkCommAvailability is experiment X3: deliverability versus failed
// servers across the four group-communication models, aggregated over a
// seed batch (mean [p50 p95] per cell).
func BenchmarkCommAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CommAvailabilityMulti(simnet.Seeds(int64(i+11), 4), 0, 10, []float64{0, 0.1, 0.2, 0.3, 0.5})
		emit(b, "x3", t)
	}
}

// BenchmarkSocialP2P is experiment X4: social-P2P delivery versus friend
// degree and uptime aggregated over a seed batch, plus the
// metadata-exposure table.
func BenchmarkSocialP2P(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SocialP2PMulti(simnet.Seeds(int64(i+13), 4), 0, 30, []int{2, 4, 8}, []float64{0.5, 0.75, 0.95})
		emit(b, "x4", t)
		emit(b, "x4b", experiments.MetadataExposureTable(10))
	}
}

// BenchmarkStorageDurability is experiment X5: object survival under
// permanent provider failures, replication versus erasure, with and
// without repair.
func BenchmarkStorageDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.StorageDurabilityMulti(simnet.Seeds(int64(i+17), 3), 0, 16, 24, 6*time.Hour, 0.5)
		emit(b, "x5", t)
	}
}

// BenchmarkStorageProofs is experiment X6: the proof-mechanism versus
// provider-attack matrix.
func BenchmarkStorageProofs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.StorageAttacks(int64(i + 19))
		emit(b, "x6", t)
	}
}

// BenchmarkHostlessWeb is experiment X7: website availability and load
// distribution, client-server versus hostless.
func BenchmarkHostlessWeb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.HostlessWebMulti(simnet.Seeds(int64(i+23), 3), 0, 30)
		emit(b, "x7", t)
	}
}

// BenchmarkUsenetLoad is experiment X8: per-server cost growth under full
// flooding versus follower-scoped federation.
func BenchmarkUsenetLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.UsenetLoad(int64(i+29), []int{5, 10, 20, 40}, 20, 512)
		emit(b, "x8", t)
	}
}

// BenchmarkAbuseContainment is experiment X9: spam exposure versus
// moderation coverage under three deployment models.
func BenchmarkAbuseContainment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AbuseContainment(int64(i+31), 20, []float64{0, 0.25, 0.5, 0.75, 1})
		emit(b, "x9", t)
	}
}

// BenchmarkSelfishMining is experiment X10: selfish-mining revenue versus
// hashrate share.
func BenchmarkSelfishMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SelfishMining(int64(i+37), 8, 120)
		emit(b, "x10", t)
	}
}

// BenchmarkDHTQuality is experiment X11: DHT performance on device-grade
// versus datacenter infrastructure.
func BenchmarkDHTQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.DHTQualityMulti(simnet.Seeds(int64(i+41), 3), 0, 40, 40)
		emit(b, "x11", t)
	}
}

// BenchmarkWoTSybil is experiment X12: web-of-trust Sybil amplification.
func BenchmarkWoTSybil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.WoTSybil(int64(i+43), 12, []int{10, 50, 200, 1000})
		emit(b, "x12", t)
	}
}

// BenchmarkLedgerGrowth is experiment X13: endless-ledger growth versus
// the SPV and compaction mitigations.
func BenchmarkLedgerGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.LedgerGrowth(int64(i+47), 3, 10)
		emit(b, "x13", t)
	}
}

// BenchmarkFeasibilitySensitivity perturbs the §4 constants (E3
// extension).
func BenchmarkFeasibilitySensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, "e3s", experiments.FeasibilitySensitivity())
	}
}

// BenchmarkRecoveryMatrix is experiment X14: the fault-battery recovery
// matrix — post-fault success and time-to-recover per subsystem × scenario.
func BenchmarkRecoveryMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RecoveryMatrix(int64(i + 53))
		emit(b, "x14", t)
	}
}

// BenchmarkScaleSweep is experiment X15 at tiny tiers: the subsystem ×
// population convergence sweep. (`feudalism experiment x15 -timing` runs
// the full 10k-node axis with wall/alloc columns.)
func BenchmarkScaleSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.ScaleSweep(int64(i+59), true)
		emit(b, "x15", t)
	}
}

// BenchmarkScaleCell10kSimnet times one raw-substrate cell at the full
// 10,000-node population — the direct measure of the Send/RPC hot path the
// allocation-budget tests pin.
func BenchmarkScaleCell10kSimnet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ScaleCellRun("simnet", int64(i+61), 10000)
	}
}

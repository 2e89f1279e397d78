// Package workload generates seed-deterministic synthetic traffic at the
// statistical shape of a million-user population: Zipf-skewed content
// popularity, diurnal request-rate cycles with per-region phase offsets, a
// regional latency/bandwidth matrix, and flash-crowd spikes that make one
// object orders of magnitude hotter at a scheduled virtual instant.
//
// Every experiment before X18 drove uniform synthetic traffic, so the
// paper's §3 claim — single-home-server federation bottlenecks where P2P
// swarms shed load — was assumed, never measured. This package supplies
// the demand side of that measurement; experiment X18 supplies the
// architectures under test.
//
// Determinism. Generators draw only from dedicated SplitMix64 streams
// derived from (seed, salt) via simnet.SaltedRand — the streams fault
// plans draw from too — never from the shared network stream and never from
// the global math/rand source (scripts/determinism_lint.sh enforces the
// latter). Given the same (seed, config), Generate replays its request
// schedule byte for byte, at any trial-worker count, which is what lets
// X18 sit under the bench gate's exact-match comparison.
//
// Hot paths. A prepared Zipf sampler draws in O(1) with zero allocations
// (Walker/Vose alias method), and a flash-crowd tick (time-varying
// multiplier plus composite draw) is allocation-free too; the root
// alloc_test.go pins both budgets.
package workload

// Canonical salts for simnet.SaltedRand, so the package's sub-streams are
// independent of each other and of the fault package's scenario streams.
const (
	// SaltStream seeds request-schedule generation (arrival thinning,
	// object draws, client choice). Generate splits it further per region.
	SaltStream = 0x301AD
)

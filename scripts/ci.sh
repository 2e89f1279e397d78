#!/bin/sh
# ci.sh — the merge gate, plus the nightly tier when asked. The default
# run is the merge gate: the full `make ci` pipeline (fmt, build, vet,
# determinism lint, race, tests with their coverage floor, fuzz burst), the
# reach check (scripts/reach.sh: no internal function that no shipped run
# reaches, unless marked //reach: or on its file allowlist, and no more
# unreached branch statements than its ceiling; its bench profile runs the
# benchmark module's tests), the fused multiply-add audit
# (scripts/fma_audit.sh: no more fused instructions in the arm64 build's
# repro/ code than its ceiling), the benchmark module's own vet, then
# the seeded bench regression gate: a fresh deterministic `feudalism bench`
# run must match the checked-in BENCH_baseline.json exactly (tolerance 0 —
# the simulation is seed-deterministic, so any metric drift is a real
# behaviour change that requires regenerating the baseline on purpose), and
# the committed BENCH_baseline.json / BENCH_PR3.json pair must agree. The same bench
# built with GOAMD64=v3 must match the baseline too, and the tree must vet
# for arm64 and 386, and the random streams' known-answer vectors must
# pass on a 386 build.
# .github/workflows/ci.yml runs exactly this script; run it locally before
# pushing to see what CI will see.
#
# CI_SCALE=1 adds the 10k-node tier (make scale). CI_NIGHTLY=1 adds the
# throughput history gate (a -timing bench diffed against BENCH_PR3.json
# with benchdiff -history: msgs/sec regressions beyond 25% fail), the same
# bench from a GOARCH=386 build at tolerance 0, and the 100k-node sharded
# tier; nightly artifacts (the timing bench JSON and the huge-tier scale
# JSON) land in $CI_ARTIFACTS (default ./ci-artifacts) so the workflow can
# upload them.
set -eu
cd "$(dirname "$0")/.."

make ci

# Reach: every non-test function under internal/ must be run by something
# the repository ships (the registry, the CLI's tests, the examples, the
# bench module's tests), or carry a //reach: marker with its reason; whole
# files at 0 % need a line on the script's allowlist; unreached branch
# statements may not pass the script's ceiling. A failing bench module test
# fails this step.
echo "reach gate: code no shipped run reaches"
./scripts/reach.sh

# FMA: an arm64 build may fuse x*y + z where amd64 rounds twice. The
# audit lists every fused instruction in repro/ code and holds their count
# to a ratchet.
echo "fma gate: fused multiply-adds in the arm64 build"
./scripts/fma_audit.sh

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/feudalism" ./cmd/feudalism
go build -o "$tmp/benchdiff" ./cmd/benchdiff

# The benchmark module (bench/, its own go.mod) is outside `./...`: vet it
# here. reach.sh above already ran its tests.
echo "bench module: vet"
(cd bench && go vet ./...)

# That BENCH_baseline.json has an entry for every registry ID — without one
# benchdiff would count the experiment as an addition and leave it ungated —
# is TestBaselineCoversRegistry's job; `make ci` above ran it.

echo "bench gate: running deterministic bench (seed 42, full scale)"
"$tmp/feudalism" bench -scale full -seed 42 -trials 1 -json "$tmp/bench.json"
"$tmp/benchdiff" BENCH_baseline.json "$tmp/bench.json"
"$tmp/benchdiff" BENCH_baseline.json BENCH_PR3.json

# Same bytes on a second ISA level: the bench built with GOAMD64=v3
# (AVX2/BMI2-era instruction selection, and files under the amd64.v3
# build tag) must match the baseline at tolerance 0. It is not an FMA
# check: Go does not fuse x*y+z on amd64 at any level, while it may on
# arm64, and the arm64 vet below only proves that the tree compiles there.
# A host whose CPU cannot run v3 code skips the step and says why.
if [ "$(go env GOARCH)" != amd64 ]; then
	echo "isa gate: skipped, GOAMD64 levels exist on amd64 only (host is $(go env GOARCH))"
else
	GOAMD64=v3 go build -o "$tmp/feudalism-v3" ./cmd/feudalism
	if ! "$tmp/feudalism-v3" list >/dev/null 2>&1; then
		echo "isa gate: skipped, this CPU cannot run GOAMD64=v3 code (needs AVX2, BMI2, FMA)"
	else
		echo "isa gate: GOAMD64=v3 bench (seed 42, full scale) vs BENCH_baseline.json at tolerance 0"
		"$tmp/feudalism-v3" bench -scale full -seed 42 -trials 1 -json "$tmp/bench-v3.json"
		"$tmp/benchdiff" -tol 0 BENCH_baseline.json "$tmp/bench-v3.json"
	fi
fi
echo "isa gate: GOARCH=arm64 go vet ./... (compile check)"
GOARCH=arm64 go vet ./...
echo "isa gate: GOARCH=386 go vet ./... (32-bit compile check: constants that overflow int)"
GOARCH=386 go vet ./...
# The known-answer vectors of the simulator's random streams, run as
# 32-bit code: a draw that depends on word size fails here first. A host
# that cannot run 386 code skips the step and says why (seconds).
if [ "$(go env GOARCH)" = amd64 ] || [ "$(go env GOARCH)" = 386 ]; then
	echo "isa gate: GOARCH=386 stream known-answer vectors"
	GOARCH=386 go test -count=1 -run KnownAnswer ./internal/simnet
else
	echo "isa gate: 386 known-answer vectors skipped, a $(go env GOARCH) host cannot run 386 code"
fi

# The 10k-node tier (make scale) is nightly-style work: run it only when
# asked, so the merge gate stays fast.
if [ "${CI_SCALE:-0}" = "1" ]; then
	echo "scale gate: big tier + race on the small tier"
	make scale
fi

# The nightly adds what the merge gate cannot afford: wall-time-aware
# benches and the 100k-node sharded tier. Timing is machine-dependent, so
# the history gate is one-sided (only slowdowns fail) with a 25% tolerance
# and a wall-time floor that keeps sub-100ms experiments out of the gate.
if [ "${CI_NIGHTLY:-0}" = "1" ]; then
	art="${CI_ARTIFACTS:-ci-artifacts}"
	mkdir -p "$art"

	echo "nightly gate: timing bench vs BENCH_PR3.json (benchdiff -history)"
	"$tmp/feudalism" bench -scale full -seed 42 -trials 1 -timing -json "$art/bench-timing.json"
	"$tmp/benchdiff" -history BENCH_PR3.json "$art/bench-timing.json"

	# Same bytes on a 32-bit build: word size, map layout and the
	# compiler's 386 code paths must not move a published number. It takes
	# about 26 s, so it stays out of the merge gate.
	if [ "$(go env GOARCH)" = amd64 ] || [ "$(go env GOARCH)" = 386 ]; then
		echo "nightly gate: GOARCH=386 bench (seed 42, full scale) vs BENCH_baseline.json at tolerance 0"
		GOARCH=386 go build -o "$tmp/feudalism-386" ./cmd/feudalism
		"$tmp/feudalism-386" bench -scale full -seed 42 -trials 1 -json "$tmp/bench-386.json"
		"$tmp/benchdiff" -tol 0 BENCH_baseline.json "$tmp/bench-386.json"
	else
		echo "nightly gate: 386 bench skipped, a $(go env GOARCH) host cannot run 386 code"
	fi

	echo "nightly gate: 100k-node sharded tier (SCALE=huge)"
	SCALE=huge go test -run TestScaleMatrix -count=1 -timeout 1800s -v .

	# The huge sweep re-runs every cell at 1 worker and GOMAXPROCS workers,
	# fails unless the snapshots are byte-identical, and (on real multi-core
	# runners) requires the parallel engine to actually pay for itself.
	echo "nightly gate: huge-tier sweep with worker-count byte-identity + speedup"
	"$tmp/feudalism" scale -n "${CI_HUGE_TIERS:-100000,1000000}" \
		-check-speedup 1.5 -json "$art/scale-huge.json"

	echo "nightly artifacts in $art:"
	ls -l "$art"
fi

echo "ci.sh: all gates passed"

GO ?= go

.PHONY: ci fmt build vet lint test race bench cover fuzz allocs scale parent-diff

# ci is the gate run before merging: formatting, build, vet, the
# determinism lint, the race detector over every internal package, the
# full test suite, the allocation-budget gate on the scale-critical hot
# paths, the per-package coverage report with its simnet floor, and a
# short burst over every discovered fuzz target. scripts/ci.sh runs this
# and then adds the seeded bench regression gate on top.
ci: fmt build vet lint race test allocs cover fuzz

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint rejects wall-clock reads and global math/rand use outside
# internal/simnet — the two easiest ways to silently break seed
# determinism (and with it the bench gate's exact-match comparison) — and
# unmarked map ranges in internal/simnet, webapp, storage, dht, chain,
# replic, resil and overload.
lint:
	./scripts/determinism_lint.sh

# race covers internal/chain's TestCheckSigConcurrent (a Tx shared between
# miners is only read once Sign has returned), and also runs the
# shard-determinism suite (small tier, every X15 cell) and the flash-crowd
# batteries' layout-agreement test with the race detector watching the
# sharded engine's worker pool — the only place in the repo where
# simulation state, and the harness callbacks experiments hand to it, cross
# goroutines mid-run.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -short -run 'TestShardDeterminism' -count=1 .
	$(GO) test -race -short -run 'TestShardedLayoutsAgree' -count=1 ./internal/experiments

test:
	$(GO) test ./...

# cover emits per-package coverage and enforces the floor on the simulation
# substrate, the resilience layer, the storage engine, the workload engine,
# the replication layer, the overload layer, the DHT and obs: every package in
# COVER_TRACKED must stay at >= 80% statement coverage — everything else in
# the repo leans on their fidelity; resil's retry/hedge/breaker decisions
# feed the X16 golden, storage's tiering/GC decisions feed the X17 golden,
# workload's draws feed the X18 golden, overload's admission decisions
# feed the X20 golden, the DHT's routing table, lookups and pooled
# replies feed X11, X14, X15 and the dht_mixed benchmark, and every golden
# and BENCH_baseline.json is an obs snapshot. The gate fails
# loudly if a tracked package is missing from the report or its line
# carries no parseable percentage (e.g. the go tool's output format
# changed), rather than silently passing.
COVER_TRACKED := repro/internal/simnet repro/internal/simnet/fault \
	repro/internal/resil repro/internal/storage repro/internal/workload \
	repro/internal/replic repro/internal/overload repro/internal/dht \
	repro/internal/obs
cover:
	@$(GO) test -cover ./internal/... | tee /tmp/feudalism-cover.txt
	@awk -v tracked='$(COVER_TRACKED)' 'BEGIN { want = split(tracked, names, " "); for (i in names) track[names[i]] = 1 } \
		$$1 == "ok" && ($$2 in track) { \
		seen++; found = 0; \
		for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%/) { found = 1; pct = $$i; sub(/%.*/, "", pct); \
			if (pct + 0 < 80) { printf "coverage gate: %s at %s%% (floor 80%%)\n", $$2, pct; fail = 1 } } \
		if (!found) { printf "coverage gate: no parseable coverage percentage in: %s\n", $$0; fail = 1 } } \
		END { if (seen != want) { printf "coverage gate: expected %d tracked packages in report, saw %d\n", want, seen; fail = 1 } exit fail }' /tmp/feudalism-cover.txt

# fuzz discovers every Fuzz* target in packages that keep a seed corpus
# under testdata/fuzz and runs each for a short burst — no hand-maintained
# target list to fall out of date when targets are added or renamed.
FUZZTIME ?= 10s
fuzz:
	@set -e; \
	for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		[ -d "$$dir/testdata/fuzz" ] || continue; \
		pkg=$$($(GO) list "$$dir"); \
		targets=$$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); \
		if [ -z "$$targets" ]; then \
			echo "fuzz: $$pkg has testdata/fuzz but no Fuzz targets"; exit 1; \
		fi; \
		for t in $$targets; do \
			echo "fuzz: $$pkg $$t ($(FUZZTIME))"; \
			$(GO) test "$$pkg" -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME); \
		done; \
	done

bench:
	$(GO) test -bench . -benchmem -benchtime 1x ./...

# allocs enforces the allocation budgets on the hot paths the X15 scale
# sweep depends on. At 0 allocs/op: substrate Send (TestAllocSendZero), an
# RPC round trip (TestAllocRPCCall), a resilient call with a hedge armed
# (TestAllocResilCall), a DHT peer serving a find_value miss
# (TestAllocDHTServeMiss) and a ping-before-evict round trip into a full
# bucket (TestAllocDHTPingEvict), and the ledger's hashing paths
# (TestAllocChainHotPaths: a transaction's ID, CheckSig on a payment Sign
# memoised, a Merkle root over 200 hashes). At 1: a replicated Get with
# resil, overload and replic enabled, its boxed object key
# (TestAllocReplicGet), and a whole proof-of-work grind, its saved midstate
# (TestAllocChainHotPaths). Inside pinned budgets: DHT lookups
# (TestAllocDHTLookup) and gossip rounds. The gates that lean on sync.Pool
# build only without -race.
allocs:
	$(GO) test -run 'TestAlloc' -count=1 . ./internal/dht ./internal/resil ./internal/replic

# scale is the nightly-style 10k-node tier: the big scale matrix at full
# population, plus the race detector over the small tier. scripts/ci.sh
# runs it when CI_SCALE=1 so the merge gate stays fast by default.
scale:
	SCALE=big $(GO) test -run 'TestScaleBig' -count=1 -timeout 300s -v .
	$(GO) test -race -short -run 'TestScaleMatrix' -count=1 .

# parent-diff proves a refactor moved no published number: every
# experiment's output and the full bench, byte for byte, against a build of
# HEAD (run the script with a ref for any other base). Not part of ci,
# which has no base ref to compare against.
parent-diff:
	./scripts/parent_diff.sh

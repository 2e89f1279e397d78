#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. BENCHMARK.json's command is "bash bench/run.sh"; the
# driver appends --workload, --seed, --seconds and --trace.
#
# Everything it leaves behind stays inside bench/: the binary and the Go
# build cache under bench/.build/ (so that nothing is read from or written
# to the home directory) and the traced runs' files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"

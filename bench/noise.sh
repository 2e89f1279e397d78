#!/usr/bin/env bash
# The benchmark's check on its own noise: two sets of five untraced runs of
# every workload on seed 1. Prints per workload and metric the median, min,
# max and the farthest a run strayed from its set's median, and exits
# non-zero if a run strays more than the metric's bound or the two sets'
# medians disagree by more than it. Takes about 16 minutes; pass a workload
# name to check one, or a different N as the second argument.
#
# `bash bench/run.sh -seeds 10` is the other reading, the driver's: ten
# seeds, quartile spreads, BENCHMARK.json's bounds (about 32 minutes).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec bash "$here/run.sh" -workload "${1:-all}" -repeat "${2:-5}" -seed 1

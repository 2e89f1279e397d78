#!/bin/sh
# parent_diff.sh [ref] — byte identity against a build of another commit
# (default HEAD): the check a refactor that must move no published number
# runs before it is committed. cmd/feudalism is built from `ref` and from
# the working tree, and every observable surface is compared:
#
#   - `experiment <id> -seed 42` for every id of `list`, and again with
#     `-trials 3` (ids without a multi-seed variant ignore -trials, so
#     their second run only repeats the first);
#   - `bench -scale full -seed 42 -trials 1`, through `benchdiff -tol 0`
#     against the ref's run and against the checked-in BENCH_baseline.json.
#
# The first differing id is printed with the head of its diff and the
# script exits non-zero. The ref is exported with `git archive` into a
# temporary directory (under $TMPDIR), so nothing is registered in .git and
# nothing is left behind. The two sides run side by side, ~4 min on two
# cores. Not part of `make ci`, which has no base ref to compare against.
set -eu
cd "$(dirname "$0")/.."
ref="${1:-HEAD}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/src" "$tmp/ref" "$tmp/tree"

echo "parent_diff: building cmd/feudalism at $ref and from the working tree"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/ref/feudalism" ./cmd/feudalism)
go build -o "$tmp/tree/feudalism" ./cmd/feudalism
go build -o "$tmp/benchdiff" ./cmd/benchdiff

ids=$("$tmp/tree/feudalism" list | awk '{print $1}')

# run_side <dir>: every surface of <dir>/feudalism into <dir>. A failing
# run is kept as output — an id the ref does not know shows up as a diff.
run_side() {
	for id in $ids; do
		"$1/feudalism" experiment "$id" -seed 42 >"$1/$id.txt" 2>&1 || true
		"$1/feudalism" experiment "$id" -seed 42 -trials 3 >"$1/$id.trials3.txt" 2>&1 || true
	done
	"$1/feudalism" bench -scale full -seed 42 -trials 1 -json "$1/bench.json"
}

echo "parent_diff: running $(echo "$ids" | wc -l) experiments (-seed 42, then -trials 3) and the full bench on both sides"
run_side "$tmp/ref" &
ref_pid=$!
run_side "$tmp/tree"
wait "$ref_pid"

for id in $ids; do
	for f in "$id.txt" "$id.trials3.txt"; do
		if ! cmp -s "$tmp/ref/$f" "$tmp/tree/$f"; then
			echo "parent_diff: first difference: experiment $id ($f, $ref vs working tree)"
			diff "$tmp/ref/$f" "$tmp/tree/$f" | head -20
			exit 1
		fi
	done
done
if ! "$tmp/benchdiff" -tol 0 "$tmp/ref/bench.json" "$tmp/tree/bench.json"; then
	echo "parent_diff: first difference: bench ($ref vs working tree)"
	exit 1
fi
if ! "$tmp/benchdiff" -tol 0 BENCH_baseline.json "$tmp/tree/bench.json"; then
	echo "parent_diff: first difference: bench (BENCH_baseline.json vs working tree)"
	exit 1
fi
echo "parent_diff: working tree is byte-identical to $ref"

#!/bin/sh
# reach.sh — does anything the repository ships run this code? Every
# non-test function under internal/ should be reached by a shipped run, not
# only by its own unit tests: the tables and experiments claim to be
# regenerated from code that actually runs.
#
# One coverage profile, instrumented over ./internal/..., is merged from
# everything the repository ships:
#
#   - go test ./cmd/feudalism ./cmd/benchdiff: the CLI's commands and
#     goldens (table1|2|3, zooko, names, dedup, scale), and `bench -scale
#     tiny -seed 7`, which runs every registry experiment at tiny scale;
#   - go test ./examples/...: the five end-to-end examples;
#   - the bench module's tests (bench/, its own go.mod): every workload of
#     the benchmark.
#
# The zero-coverage functions are printed, grouped by file. The script
# exits 1 on:
#
#   - a whole file at 0 % that is not on the allowlist below;
#   - a function at 0 % outside the allowlisted files whose `func` line
#     has no `//reach:<reason>` marker on the line above it;
#   - a `//reach:` marker above a function some shipped run reaches, so a
#     marker cannot outlive its reason, or above no function at all.
#
# A marker keeps a function no shipped run reaches when a test in another
# package needs it to observe a shipped mechanism, a printed row cites it
# as evidence, or it satisfies an interface. Anything else is deleted, or
# moved into a _test.go file when only its own package's tests use it.
# scripts/ci.sh runs this after `make ci`.
set -eu
cd "$(dirname "$0")/.."

# Files no merge-gate run reaches, on purpose. One line each:
# <path under internal/> <reason>.
allow='identity/pki.go the zooko ca-pki row cites it, pending a computed CA-compromise row
core/core.go the §2 taxonomy Profiles(), which no command prints yet'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# cover <name> <dir> <coverpkg> <go test args>: one profile, $tmp/<name>.out.
cover() {
	name=$1 dir=$2 pkg=$3
	shift 3
	(cd "$dir" && go test -count=1 -coverpkg="$pkg" -coverprofile="$tmp/$name.out" "$@") >"$tmp/$name.log" 2>&1 || {
		cat "$tmp/$name.log"
		echo "reach: go test $* (in $dir) failed" >&2
		exit 1
	}
}
cover cmd . ./internal/... ./cmd/feudalism ./cmd/benchdiff
cover examples . ./internal/... ./examples/...
cover bench bench repro/internal/... ./...

# Merge: a block is covered if any run covered it. The bench profile lists
# only the blocks of the packages its binary links, the others every block
# under internal/, so the union of blocks is taken.
echo "mode: set" >"$tmp/merged.out"
cat "$tmp/cmd.out" "$tmp/examples.out" "$tmp/bench.out" | awk '
	$1 != "mode:" { stmts[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END { for (b in stmts) print b, stmts[b], (b in hit) }' >>"$tmp/merged.out"

# Every function with its coverage: <file under internal/> <line> <name> <pct>.
go tool cover -func="$tmp/merged.out" | awk '
	$1 != "total:" { split($1, loc, ":"); f = loc[1]; sub(/^repro\/internal\//, "", f); print f, loc[2], $2, $NF }' >"$tmp/funcs.txt"

echo "reach: functions no shipped run reaches, by file"
awk '$4 == "0.0%" { if ($1 != last) { print $1; last = $1 } print "\t" $2 "\t" $3 }' "$tmp/funcs.txt"

# Files with statements and none of them covered.
tail -n +2 "$tmp/merged.out" | awk '
	{ split($1, loc, ":"); f = loc[1]; sub(/^repro\/internal\//, "", f); total[f] += $2; if ($3 > 0) covered[f] += $2 }
	END { for (f in total) if (total[f] > 0 && !covered[f]) print f }' | sort >"$tmp/zero.txt"

allowed() {
	printf '%s\n' "$allow" | awk -v f="$1" '$1 == f { $1 = ""; sub(/^ /, ""); print; exit }'
}

bad=0
while read -r f; do
	reason=$(allowed "$f")
	if [ -n "$reason" ]; then
		echo "reach: $f at 0 %, allowed: $reason"
	else
		echo "reach: $f at 0 %: no shipped run reaches it; run it from the claim it backs or delete it" >&2
		bad=1
	fi
done <"$tmp/zero.txt"

# Functions: each 0 % function outside the allowlisted files needs a marker
# on the line above its `func`, and each marker must sit on a 0 % function.
marked=0
while read -r f line name pct; do
	[ -n "$(allowed "$f")" ] && continue
	above=$(sed -n "$((line - 1))p" "internal/$f")
	case "$above" in
	//reach:*)
		if [ "$pct" = "0.0%" ]; then
			marked=$((marked + 1))
		else
			echo "reach: internal/$f:$line $name carries a //reach: marker but a shipped run reaches it ($pct); drop the marker" >&2
			bad=1
		fi
		;;
	*)
		if [ "$pct" = "0.0%" ]; then
			echo "reach: internal/$f:$line $name: no shipped run reaches it; delete it, move it into a _test.go file, or mark it //reach:<reason>" >&2
			bad=1
		fi
		;;
	esac
done <"$tmp/funcs.txt"

# A marker that sits above no function the profile knows (a type, a
# comment, a moved func) would never be checked: refuse it.
for f in $(find internal -name '*.go' ! -name '*_test.go' | sort); do
	grep -n '^//reach:' "$f" | cut -d: -f1 | while read -r n; do
		if ! awk -v f="${f#internal/}" -v l="$((n + 1))" '$1 == f && $2 == l { found = 1 } END { exit !found }' "$tmp/funcs.txt"; then
			echo "reach: $f:$n: //reach: marker is not on the line above a func" >&2
			echo x >>"$tmp/stray"
		fi
	done
done
[ -s "$tmp/stray" ] && bad=1
echo "reach: $marked unreached functions kept with a //reach: marker"
exit "$bad"

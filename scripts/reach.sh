#!/bin/sh
# reach.sh — does anything the repository ships run this code? Every
# non-test file under internal/ should be reached by a shipped run, not only
# by its own unit tests: the tables and experiments claim to be regenerated
# from code that actually runs.
#
# One coverage profile, instrumented over ./internal/..., is merged from
# everything the repository ships:
#
#   - TestRegistryTinyRuns: every registry experiment at tiny scale;
#   - go test ./cmd/feudalism ./cmd/benchdiff: the CLI's commands and
#     goldens (table1|2|3, zooko, names, dedup, bench, scale);
#   - go test ./examples/...: the five end-to-end examples.
#
# The zero-coverage functions are printed, grouped by file, for
# information. The script exits 1 if a whole file is at 0 % and is not on
# the allowlist below. scripts/ci.sh runs it after `make ci`.
set -eu
cd "$(dirname "$0")/.."

# Files no merge-gate run reaches, on purpose. One line each:
# <path under internal/> <reason>.
allow='identity/pki.go the zooko ca-pki row cites it, pending a computed CA-compromise row
core/core.go the §2 taxonomy Profiles(), which no command prints yet'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# cover <name> <go test args>: one profile, $tmp/<name>.out.
cover() {
	name=$1
	shift
	go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/$name.out" "$@" >"$tmp/$name.log" 2>&1 || {
		cat "$tmp/$name.log"
		echo "reach: go test $* failed" >&2
		exit 1
	}
}
cover registry -run '^TestRegistryTinyRuns$' ./internal/experiments
cover cmd ./cmd/feudalism ./cmd/benchdiff
cover examples ./examples/...

# Merge: a block is covered if any run covered it. Every run uses the same
# -coverpkg, so every profile lists the same blocks.
echo "mode: set" >"$tmp/merged.out"
cat "$tmp/registry.out" "$tmp/cmd.out" "$tmp/examples.out" | awk '
	$1 != "mode:" { stmts[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END { for (b in stmts) print b, stmts[b], (b in hit) }' >>"$tmp/merged.out"

echo "reach: functions no shipped run reaches, by file"
go tool cover -func="$tmp/merged.out" | awk '
	$NF == "0.0%" { split($1, loc, ":"); f = loc[1]; sub(/^repro\/internal\//, "", f)
		if (f != last) { print f; last = f } print "\t" loc[2] "\t" $2 }'

# Files with statements and none of them covered.
tail -n +2 "$tmp/merged.out" | awk '
	{ split($1, loc, ":"); f = loc[1]; sub(/^repro\/internal\//, "", f); total[f] += $2; if ($3 > 0) covered[f] += $2 }
	END { for (f in total) if (total[f] > 0 && !covered[f]) print f }' | sort >"$tmp/zero.txt"

bad=0
while read -r f; do
	reason=$(printf '%s\n' "$allow" | awk -v f="$f" '$1 == f { $1 = ""; sub(/^ /, ""); print; exit }')
	if [ -n "$reason" ]; then
		echo "reach: $f at 0 %, allowed: $reason"
	else
		echo "reach: $f at 0 %: no shipped run reaches it; run it from the claim it backs or delete it" >&2
		bad=1
	fi
done <"$tmp/zero.txt"
exit "$bad"

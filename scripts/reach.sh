#!/bin/sh
# reach.sh — does anything the repository ships run this code? Every
# non-test function under internal/ should be reached by a shipped run, not
# only by its own unit tests, and so should every branch inside it: the
# tables and experiments claim to be regenerated from code that actually
# runs.
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
# Every run sees GOMAXPROCS=2 (-cpu 2): worker pools size themselves from
# it, so an unpinned profile would depend on the host's core count.
#
# The zero-coverage functions are printed, grouped by file, and then every
# unreached block (the go cover tool's unit: a run of statements with no
# branch between them) outside the allowlisted files, one line each:
# file:line of its first statement, its kind, its statement count, the
# enclosing function and the statement's source. A block is a guard when
# it holds at most 2 statements and its last statement is a return, a
# panic, a continue or a break (`if err != nil { return err }`); every
# other block is a branch. The script exits 1 on:
#
#   - a whole file at 0 % that is not on the allowlist below;
#   - a function at 0 % outside the allowlisted files whose `func` line
#     has no `//reach:<reason>` marker on the line above it;
#   - a `//reach:` marker above a function some shipped run reaches, so a
#     marker cannot outlive its reason, or above no function at all;
#   - unreached branch statements above the ceiling below: a change that
#     adds a branch no shipped run takes either runs it or deletes it;
#   - unreached branch statements below the ceiling: the ceiling is a
#     ratchet, and the change that lowers the count lowers it too;
#   - a note (below) on a function with no unreached branch.
#
# Guard statements are counted but not gated: injected faults, not
# shipped runs, are what should reach them.
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

# Unreached branch statements outside the allowlisted files, at most.
ceiling=156

# Unreached branches a run outside the merge gate takes, printed beside
# their listing line; they still count under the ceiling. One line each:
# <path under internal/> <function> <reason>.
notes='dht/peer.go derivedID the nightly huge tier (SCALE=huge, over 65,536 nodes) reaches it'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# cover <name> <dir> <coverpkg> <go test args>: one profile, $tmp/<name>.out.
cover() {
	name=$1 dir=$2 pkg=$3
	shift 3
	(cd "$dir" && go test -count=1 -cpu 2 -coverpkg="$pkg" -coverprofile="$tmp/$name.out" "$@") >"$tmp/$name.log" 2>&1 || {
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

# Blocks: every unreached block, as <file> <start line> <start col>
# <end line> <end col> <statements>, in source order.
tail -n +2 "$tmp/merged.out" | awk '$3 == 0 {
	split($1, loc, ":"); f = loc[1]; sub(/^repro\/internal\//, "", f)
	split(loc[2], r, ","); split(r[1], s, "."); split(r[2], e, ".")
	print f, s[1], s[2], e[1], e[2], $2 }' | sort -k1,1 -k2,2n -k3,3n >"$tmp/unreached.txt"
printf '%s\n' "$allow" >"$tmp/allow.txt"
printf '%s\n' "$notes" >"$tmp/notes.txt"

# Classify each block outside the allowlisted files from its source text:
# its statements are the lines inside it at the least indentation, less
# comments and the lines that close a multi-line expression, and the last
# one decides guard or branch. Then total them and hold the branches to
# the ceiling. awk reads columns as bytes, as the cover tool counts them.
echo "reach: blocks no shipped run reaches, by file (guard: at most 2 statements ending in return, panic, continue or break)"
LC_ALL=C awk -v ceiling="$ceiling" '
	FILENAME == ARGV[1] { allowed[$1] = 1; next }
	FILENAME == ARGV[2] { if (NF) { f = $1; fn = $2; $1 = $2 = ""; sub(/^ +/, ""); note[f, fn] = $0 } next }
	FILENAME == ARGV[3] { nf[$1]++; fline[$1, nf[$1]] = $2; fname[$1, nf[$1]] = $3; next }
	$1 in allowed { next }
	{
		f = $1; sl = $2; sc = $3; el = $4; ec = $5; n = $6
		if (f != cached) {
			cached = f; nl = 0
			while ((getline line <("internal/" f)) > 0) src[++nl] = line
			close("internal/" f)
		}
		k = 0
		for (l = sl; l <= el; l++) {
			from = l == sl ? sc : 1
			t = substr(src[l], from, (l == el ? ec - 1 : length(src[l])) - from + 1)
			if (l == sl) sub(/^[ \t]*\{/, "", t)
			if (l == el) sub(/\}[ \t]*$/, "", t)
			if ((m = match(t, /[^ \t]/)) == 0) continue
			t = substr(t, m); sub(/[ \t]+$/, "", t)
			if (t ~ /^\/\//) continue
			k++; at[k] = l; ind[k] = from + m - 2; txt[k] = t
		}
		min = -1
		for (i = 1; i <= k; i++) if (min < 0 || ind[i] < min) min = ind[i]
		last = ""
		for (i = 1; i <= k; i++) if (ind[i] == min && txt[i] !~ /^[})]/) last = txt[i]
		kind = "branch"
		if (n <= 2 && (last ~ /^(return|continue|break)([^A-Za-z0-9_]|$)/ || last ~ /^panic\(/)) kind = "guard"
		fn = "?"
		for (i = 1; i <= nf[f]; i++) if (fline[f, i] + 0 <= sl + 0) fn = fname[f, i]
		why = ""
		if ((f, fn) in note) {
			why = "\t[" note[f, fn] "]"
			if (kind == "branch") noted[f, fn] = 1
		}
		printf "internal/%s:%d\t%s\t%d\t%s: %s%s\n", f, k ? at[1] : sl, kind, n, fn, k ? txt[1] : "", why
		stmts[kind] += n; blocks[kind]++
	}
	END {
		printf "reach: %d guard statements in %d blocks, %d branch statements in %d blocks\n", stmts["guard"], blocks["guard"], stmts["branch"], blocks["branch"]
		fflush()
		for (k in note) if (!(k in noted)) {
			split(k, p, SUBSEP)
			printf "reach: note on %s %s, which has no unreached branch; drop the note\n", p[1], p[2] >"/dev/stderr"
			bad = 1
		}
		b = stmts["branch"] + 0
		if (b > ceiling) {
			printf "reach: %d unreached branch statements, above the ceiling of %d: run each new branch listed above from a shipped run, or delete it\n", b, ceiling >"/dev/stderr"
			bad = 1
		} else if (b < ceiling) {
			printf "reach: %d unreached branch statements, below the ceiling of %d: lower the ceiling to %d\n", b, ceiling, b >"/dev/stderr"
			bad = 1
		}
		exit bad
	}' "$tmp/allow.txt" "$tmp/notes.txt" "$tmp/funcs.txt" "$tmp/unreached.txt" || bad=1
exit "$bad"

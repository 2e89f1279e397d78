#!/bin/sh
# fma_audit.sh — where would an arm64 build round differently from this
# one? The Go spec lets a compiler fuse x*y + z into one instruction with
# one rounding, unless an explicit conversion such as float64(x*y) rounds
# the product first. gc fuses on arm64 and never on amd64 or 386, so every
# fused instruction in the repository's own code is a place where an arm64
# run could compute a different float64, and through it a different event.
#
# The script cross-builds cmd/feudalism for arm64 (no emulator is needed),
# disassembles it with `go tool objdump`, and lists every FMADDD, FMSUBD,
# FNMADDD and FNMSUBD instruction in a repro/ symbol, one line per source
# line and function:
#
#   <file>:<line>  <count>  <function>  <opcodes>
#
# The file and line are where the arithmetic is written (the innermost
# inlined call, as `go tool addr2line` reports it); the function is the
# symbol the instruction was compiled into. Then come the totals. Fused
# instructions in the standard library (math.log, math/rand's ExpFloat64
# and the like) are not listed.
#
# The count is a ratchet, as reach.sh's branch ceiling is. The script exits
# 1 when the repro/ instructions are:
#
#   - above the ceiling below: a change that adds one rounds its product
#     explicitly instead;
#   - below it: the change that removes one lowers the ceiling too.
#
# scripts/ci.sh runs it. About 3 s with a warm build cache.
set -eu
cd "$(dirname "$0")/.."

# Fused multiply-add instructions in repro/ symbols of the arm64 build, at
# most.
ceiling=24

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

GOARCH=arm64 go build -trimpath -o "$tmp/feudalism" ./cmd/feudalism
go tool objdump "$tmp/feudalism" >"$tmp/dis"

# Objdump instruction lines read: file:line, address, encoding, opcode,
# operands. Keep the address and opcode of each fused instruction under a
# repro/ TEXT symbol.
LC_ALL=C awk '
	/^TEXT / { fn = $2; next }
	fn ~ /^repro\// && $4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/ { print $2, $4 }
' "$tmp/dis" >"$tmp/fused"

# addr2line prints two lines per address: the function, then file:line.
cut -d' ' -f1 "$tmp/fused" | go tool addr2line "$tmp/feudalism" |
	paste - - | paste - "$tmp/fused" >"$tmp/sites"

LC_ALL=C sort -k2,2V -k1,1 "$tmp/sites" | LC_ALL=C awk -v ceiling="$ceiling" '
	{
		key = $2 "\t" $1
		if (!(key in n)) order[++keys] = key
		n[key]++
		ops[key] = ops[key] (n[key] > 1 ? "," : "") $4
		funcs[$1] = 1
		lines[$2] = 1
		total++
	}
	END {
		for (i = 1; i <= keys; i++) {
			split(order[i], kf, "\t")
			printf "%s  %d  %s  %s\n", kf[1], n[order[i]], kf[2], ops[order[i]]
		}
		nf = 0; for (f in funcs) nf++
		nl = 0; for (l in lines) nl++
		printf "fma_audit: %d fused instructions in %d repro/ functions, at %d source lines (ceiling %d)\n", total, nf, nl, ceiling
		if (total > ceiling) {
			printf "fma_audit: %d fused instructions, above the ceiling of %d: round the new product explicitly, as in float64(x*y) + z\n", total, ceiling >"/dev/stderr"
			exit 1
		}
		if (total < ceiling) {
			printf "fma_audit: %d fused instructions, below the ceiling of %d: lower the ceiling to %d\n", total, ceiling, total >"/dev/stderr"
			exit 1
		}
	}
'

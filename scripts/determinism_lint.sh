#!/bin/sh
# determinism_lint.sh — fail if non-test code under internal/ (outside
# internal/simnet, which owns all time and randomness) reads the wall clock
# or draws from the global math/rand source. Either would make simulation
# results depend on the host instead of the seed; anything that needs time
# must use virtual time (Network.Now) and anything that needs randomness
# must use the per-node RNG streams. Wall-clock timing for benches is
# injected from cmd/ (see experiments.BenchOptions.WallClock).
set -eu
cd "$(dirname "$0")/.."

bad=0
for f in $(find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/simnet/*' | sort); do
    if grep -nE 'time\.Now\(' "$f"; then
        echo "determinism lint: $f reads the wall clock (use virtual time or injected clocks)" >&2
        bad=1
    fi
    if grep -nE '\brand\.(Intn|Int63n?|Int31n?|Int|Float64|Float32|Perm|Shuffle|Seed|Uint32|Uint64|NormFloat64|ExpFloat64|Read|N)\(' "$f"; then
        echo "determinism lint: $f uses the global math/rand source (use the per-node RNG streams)" >&2
        bad=1
    fi
done

# --- sharded-engine rules -------------------------------------------------
# internal/simnet owns event ordering, and the sharded engine runs it on
# several goroutines at once, so two extra hazards apply inside the package
# itself:
#
# 1) sync/atomic is banned in the engine. An atomic counter is exactly the
#    shape of bug the shard design forbids: it makes a value depend on which
#    worker got there first, which the byte-identity tests cannot always
#    catch. All cross-shard accumulation must happen at window barriers
#    (outbox drain, Trace.add, Histogram.Merge). trials.go is the one
#    allowlisted file — it parallelises whole independent simulations and
#    only uses an atomic to hand out trial indices, never inside a network.
for f in $(find internal/simnet -name '*.go' ! -name '*_test.go' ! -name 'trials.go' | sort); do
    if grep -nE '"sync/atomic"|\batomic\.[A-Z]' "$f"; then
        echo "determinism lint: $f uses sync/atomic inside the simulation engine (accumulate at window barriers instead)" >&2
        bad=1
    fi
done

# 2) Map iteration is banned in the engine unless the line carries a
#    //determinism:ok marker explaining why order cannot leak (result sorted,
#    merge commutative, validation only). Go randomises map order per run,
#    so an unmarked range over a map in a path feeding event ordering or
#    exported snapshots silently breaks seed determinism. The check extracts
#    every identifier declared as a map (field, param, var, assignment, or
#    := literal/make) and every function returning one, then flags `range`
#    statements over any of those names. Names are scoped per file plus the
#    struct fields declared in simnet.go (Network and the ledger every shard
#    embeds), and a map declared with := only within its own function, so a
#    slice that happens to share a name with a map elsewhere does not
#    false-positive. A range over one element of a map (range m[k]) walks
#    that element, not the map, and is flagged only where some linted file
#    declares a map of that name whose values are maps.
simnet_files=$(find internal/simnet -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
mapranged_files=$(find internal/simnet internal/webapp internal/storage internal/dht internal/chain \
    internal/replic internal/resil internal/overload -maxdepth 1 \
    -name '*.go' ! -name '*_test.go' | sort)
# extract_mapnames FILES... names the maps declared file-wide: fields,
# parameters, vars and plain assignments (:= locals are scoped per function
# by check_map_ranges itself).
extract_mapnames() {
    (grep -hoE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]+map\[' "$@" | awk '{print $1}';
     grep -hoE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]*=[[:space:]]*(make\()?map\[' "$@" |
         sed -E 's/[[:space:]]*=.*//') | sort -u
}
nested_mapnames=$(grep -hoE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:?=?[[:space:]]*(make\()?map\[[^]]*\]map\[' \
    $mapranged_files | sed -E 's/[[:space:]:=].*//' | sort -u)
# check_map_ranges FILE NAMES... flags every unmarked range in FILE over a
# map named in NAMES or over a map declared with := earlier in the same
# function.
check_map_ranges() {
    mf=$1
    shift
    if ! awk -v names="$*" -v nested="$nested_mapnames" '
        BEGIN {
            n = split(names, a, " "); for (i = 1; i <= n; i++) mapname[a[i]] = 1
            n = split(nested, a, " "); for (i = 1; i <= n; i++) deep[a[i]] = 1
        }
        /^func / { split("", local) }
        {
            rest = $0
            while (match(rest, /[A-Za-z_][A-Za-z0-9_]*[ \t]*:=[ \t]*(make\()?map\[/)) {
                name = substr(rest, RSTART, RLENGTH); sub(/[ \t]*:=.*/, "", name)
                local[name] = 1
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        /range / && !/determinism:ok/ && match($0, /range [A-Za-z0-9_.]+/) {
            name = substr($0, RSTART + 6, RLENGTH - 6); sub(/.*\./, "", name)
            after = substr($0, RSTART + RLENGTH, 1)
            if (after == "(" || (after == "[" && !(name in deep))) next
            if ((name in mapname) || (name in local)) {
                printf "%s:%d:%s\n", FILENAME, FNR, $0
                printf "determinism lint: %s iterates map %s without a //determinism:ok marker (map order is randomised per run)\n", FILENAME, name > "/dev/stderr"
                bad = 1
            }
        }
        END { exit bad }
    ' "$mf"; then
        bad=1
    fi
}
# Network's and ledger's fields are reachable from every file of the package
# (sh.latency, nw.partition), so those names are shared; other names stay
# scoped to their own file, and := locals to their own function.
shared_mapnames=$(grep -hoE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]+map\[' \
    internal/simnet/simnet.go | awk '{print $1}' | sort -u)
if ! echo "$shared_mapnames" | grep -qx latency; then
    echo "determinism lint: ledger's latency map not found in internal/simnet/simnet.go (did the accounting struct move?)" >&2
    exit 1
fi
# Functions and methods that return a map (latencySnapshot, the merged view
# of every ledger's latency map) are ranged over by call, package-wide.
mapfuncs=$(grep -hoE '[A-Za-z_][A-Za-z0-9_]*\([^()]*\)[[:space:]]+map\[' $simnet_files | sed -E 's/\(.*//' | sort -u)
for f in $simnet_files; do
    check_map_ranges "$f" $( (extract_mapnames "$f"; echo "$shared_mapnames") | sort -u)
    for name in $mapfuncs; do
        if grep -nE "range ([A-Za-z0-9_.]+\.)?${name}\(" "$f" | grep -v 'determinism:ok'; then
            echo "determinism lint: $f iterates the map returned by '$name' without a //determinism:ok marker (map order is randomised per run)" >&2
            bad=1
        fi
    done
done

# The same map-range rule covers the packages that fan out one draw per
# map entry: internal/webapp and internal/dht send one RPC per followed site
# or key, and each send draws a call id and the link's loss and jitter;
# internal/storage's custodian pays one contract per entry, and each
# payment draws the wallet's next nonce. Map order there would bind those
# draws to a different entry on every run. internal/chain keeps its block
# tree, its light client's headers and its orphans in maps keyed by block
# hash; a walk over one that fed a send, a pool or a state would replay in
# a different order on every run. internal/replic, internal/resil and
# internal/overload are what X16, X19 and X20 replay from: a provider's
# adverts, pushes and releases, a client's retries and hedges, a server's
# admissions and sheds each send a message, so a walk over a map that fed
# one would reorder sends. Names are scoped per file.
for f in $mapranged_files; do
    case "$f" in internal/simnet/*) continue ;; esac
    check_map_ranges "$f" $(extract_mapnames "$f")
done

# The workload engine must stay inside the sweep: every generator draw has
# to come off the seeded streams, or X18 schedules stop replaying.
if ! find internal/workload -name '*.go' ! -name '*_test.go' | grep -q .; then
    echo "determinism lint: internal/workload sources missing from the sweep" >&2
    exit 1
fi

# The replication layer's whole contract is determinism — demand decay as
# a pure function of observation times, no randomness, sorted fan-out —
# so it must stay inside the sweep too, or X19 stops replaying.
if ! find internal/replic -name '*.go' ! -name '*_test.go' | grep -q .; then
    echo "determinism lint: internal/replic sources missing from the sweep" >&2
    exit 1
fi

# Server-side overload control draws no randomness at all: admission,
# AIMD, CoDel, and the shed-hint ladder are pure functions of virtual
# time and config — it must stay inside the sweep, or X20 stops
# replaying.
if ! find internal/overload -name '*.go' ! -name '*_test.go' | grep -q .; then
    echo "determinism lint: internal/overload sources missing from the sweep" >&2
    exit 1
fi

if [ "$bad" -ne 0 ]; then
    echo "determinism lint: FAILED" >&2
    exit 1
fi
echo "determinism lint: OK"

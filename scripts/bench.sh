#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmark suite, record the results
# as BENCH_<date>.json in the repo root, and optionally gate against a
# previous trajectory file, so every PR from the zero-allocation message
# plane on leaves a comparable perf snapshot.
#
# Usage:
#   scripts/bench.sh                           # default suite
#   scripts/bench.sh --latest                  # print the latest snapshot file
#   scripts/bench.sh --compare BENCH_<d>.json  # also diff vs a previous snapshot,
#                                              # fail on >15% regression
#   scripts/bench.sh --compare FILE --metric allocs   # gate allocs/op only
#                                              # (machine-independent; what CI uses)
#   scripts/bench.sh --compare FILE --threshold 20    # custom regression %
#   BENCH='MessagePlane' scripts/bench.sh
#   BENCHTIME=50x scripts/bench.sh
#
# If BENCH_<date>.json already exists (a same-day snapshot), the new
# file is written as BENCH_<date>_02.json, _03.json, ... — snapshots
# are never overwritten, so the trajectory is append-only. The latest
# snapshot is selected by `--latest`, which sorts by (date, numeric
# suffix) — plain lexicographic `ls | sort | tail -1` breaks once a
# same-day suffix reaches three digits (_100 sorts before _99), so
# never use it for baseline selection.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH="${BENCH:-MessagePlane|Traversal|DerivedViews|Table6|Snapshot|TextDecode|Spill|Planner}"
BENCHTIME="${BENCHTIME:-20x}"
COMPARE=""
THRESHOLD=15
METRIC=all

# latest_snapshot prints the newest BENCH_*.json by version-aware
# ordering: numeric date first, then numeric same-day suffix (an
# unsuffixed snapshot counts as suffix 1). Files not matching the
# snapshot naming scheme are ignored. Prints nothing when no snapshot
# exists.
latest_snapshot() {
    local f base date suf best="" best_date=0 best_suf=0
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        base="${f#BENCH_}"
        base="${base%.json}"
        date="${base%%_*}"
        case "$date" in ''|*[!0-9]*) continue ;; esac
        if [ "$base" = "$date" ]; then
            suf=1
        else
            suf="${base#*_}"
            case "$suf" in ''|*[!0-9]*) continue ;; esac
            suf=$((10#$suf))
        fi
        if [ "$date" -gt "$best_date" ] ||
           { [ "$date" -eq "$best_date" ] && [ "$suf" -gt "$best_suf" ]; }; then
            best="$f" best_date="$date" best_suf="$suf"
        fi
    done
    if [ -n "$best" ]; then
        printf '%s\n' "$best"
    fi
}

while [ $# -gt 0 ]; do
    case "$1" in
        --latest)
            latest_snapshot
            exit 0 ;;
        --compare)
            # An empty value (e.g. a glob that matched nothing in CI)
            # must fail loudly, not silently skip the gate.
            if [ -z "${2:-}" ]; then
                echo "bench.sh: --compare requires a baseline file" >&2
                exit 2
            fi
            COMPARE="$2"; shift 2 ;;
        --threshold) THRESHOLD="$2"; shift 2 ;;
        --metric)
            # Anything but the two known values must fail loudly: a
            # typo like 'alloc' would otherwise silently re-enable the
            # ns/op gate, which is nondeterministic on shared runners.
            case "${2:-}" in
                all|allocs) METRIC="$2" ;;
                *) echo "bench.sh: --metric must be 'all' or 'allocs', got '${2:-}'" >&2; exit 2 ;;
            esac
            shift 2 ;;
        *) echo "bench.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -n "$COMPARE" ] && [ ! -f "$COMPARE" ]; then
    echo "bench.sh: baseline $COMPARE not found" >&2
    exit 2
fi

out="BENCH_$(date +%Y%m%d).json"
n=1
while [ -e "$out" ]; do
    n=$((n + 1))
    out="$(printf 'BENCH_%s_%02d.json' "$(date +%Y%m%d)" "$n")"
done

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run=NONE -bench="$BENCH" -benchmem -benchtime="$BENCHTIME" . | tee "$tmp"

awk -v date="$(date +%Y-%m-%d)" -v pattern="$BENCH" -v benchtime="$BENCHTIME" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"bench\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"results\": [\n", date, pattern, benchtime
    n = 0
}
/^Benchmark/ {
    name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
    # Drop the -GOMAXPROCS suffix go test appends (none at 1), so
    # snapshots from hosts with different core counts share names.
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$tmp" > "$out"

echo "wrote $out"

if [ -z "$COMPARE" ]; then
    exit 0
fi

echo "comparing against $COMPARE (threshold ${THRESHOLD}%, metric $METRIC)"
awk -v thr="$THRESHOLD" -v metric="$METRIC" '
function num(key,    s) {
    if (match($0, "\"" key "\": [0-9]+")) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: /, "", s)
        return s + 0
    }
    return -1
}
function bname(    s) {
    if (match($0, /"name": "[^"]+"/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/"name": "/, "", s)
        sub(/"$/, "", s)
        return s
    }
    return ""
}
# First file: the baseline snapshot.
FNR == NR {
    n = bname()
    if (n != "") { base_ns[n] = num("ns_per_op"); base_allocs[n] = num("allocs_per_op") }
    next
}
# gate compares one metric of one benchmark: fails loudly when the
# fresh value is missing, regressed beyond the threshold, or grew from
# a zero baseline (any growth from zero is a regression — zero allocs
# is the message plane target state).
function gate(name, label, base, fresh,    pct) {
    if (fresh < 0) {
        printf "  REGRESSION: %s %s missing from fresh snapshot (baseline %d)\n", name, label, base
        return 1
    }
    if (base == 0) {
        printf "  %-55s %s %12d -> %12d\n", name, label, base, fresh
        if (fresh > 0) {
            printf "  REGRESSION: %s %s grew from a zero baseline\n", name, label
            return 1
        }
        return 0
    }
    pct = (fresh - base) * 100.0 / base
    printf "  %-55s %s %12d -> %12d  (%+.1f%%)\n", name, label, base, fresh, pct
    if (pct > thr) {
        printf "  REGRESSION: %s %s worsened %.1f%% (> %d%%)\n", name, label, pct, thr
        return 1
    }
    return 0
}
# Second file: the fresh snapshot.
{
    n = bname()
    if (n == "" || !(n in base_ns)) next
    compared++
    ns = num("ns_per_op"); allocs = num("allocs_per_op")
    if (metric != "allocs" && base_ns[n] >= 0)
        bad += gate(n, "ns/op", base_ns[n], ns)
    if (base_allocs[n] >= 0)
        bad += gate(n, "allocs/op", base_allocs[n], allocs)
}
END {
    if (compared == 0) { print "  no common benchmarks to compare"; exit 1 }
    if (bad > 0) { printf "  %d regression(s) beyond %d%%\n", bad, thr; exit 1 }
    printf "  %d benchmark(s) within %d%% of baseline\n", compared, thr
}
' "$COMPARE" "$out"

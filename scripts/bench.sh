#!/usr/bin/env bash
# Run the kernel-level criterion benchmarks and assemble their JSON-lines
# output into BENCH_selection.json / BENCH_nn.json / BENCH_dse.json /
# BENCH_serve.json at the repo root (or under --out-dir).
#
# Usage:
#   scripts/bench.sh                  # full timing budgets (minutes)
#   scripts/bench.sh --quick          # CRITERION_QUICK smoke budgets (seconds),
#                                     # for CI and local sanity checks
#   scripts/bench.sh --out-dir DIR    # write BENCH_*.json under DIR instead of
#                                     # the repo root (e.g. a fresh run to feed
#                                     # `perfpredict perf-report` against the
#                                     # committed baselines)
#
# Each BENCH_*.json is a JSON document:
#   { "mode": "quick"|"full", "results": [ {bench, mean_ns, ...}, ... ] }
# The per-bench records come verbatim from the compat criterion harness
# (CRITERION_JSON_LINES). Before timing, the bench binaries re-assert
# the equivalences they rely on: selection's incremental drivers against
# the from-scratch reference, nn's AVX2 matmul_tn kernel against the
# scalar oracle, and serve's replay across worker counts. The remaining
# bit-identity checks (batched vs scalar NN, compiled vs interpreted
# serving) are unit tests, not bench pre-checks.
# The dse bench also times the adaptive (query-by-committee) explorer
# against its equal-budget random baseline (dse/adaptive_vs_random_quick),
# so acquisition-loop regressions land in BENCH_dse.json.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
out_dir=.
while [ $# -gt 0 ]; do
    case "$1" in
        --quick)
            mode=quick
            export CRITERION_QUICK=1
            shift
            ;;
        --out-dir)
            [ $# -ge 2 ] || { echo "error: --out-dir requires a path" >&2; exit 2; }
            out_dir=$2
            shift 2
            ;;
        *)
            echo "error: unknown argument '$1' (usage: bench.sh [--quick] [--out-dir DIR])" >&2
            exit 2
            ;;
    esac
done
mkdir -p "$out_dir"

for bench in selection nn dse serve; do
    lines=$(mktemp)
    trap 'rm -f "$lines"' EXIT
    CRITERION_JSON_LINES="$lines" cargo bench -p bench --bench "$bench"
    if [ ! -s "$lines" ]; then
        echo "error: bench '$bench' emitted no results" >&2
        exit 1
    fi
    out="$out_dir/BENCH_${bench}.json"
    {
        printf '{"mode":"%s","results":[\n' "$mode"
        # JSON-lines -> comma-separated array elements.
        sed '$!s/$/,/' "$lines"
        printf ']}\n'
    } > "$out"
    rm -f "$lines"
    trap - EXIT
    echo "wrote $out ($(grep -c '"bench"' "$out") results)"
done

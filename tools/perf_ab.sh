#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench): a parent
# revision (A) against the working tree (B), the one perf gate.
#
#   tools/perf_ab.sh [--pairs N] [--seed S] [--workload W]... [rev]
#
# rev defaults to HEAD~1, N to 5, S to 1, and the workloads to every
# one BENCHMARK.json lists (--workload may repeat). ci.sh stage 9 runs
# it with the defaults.
#
# A is `git archive rev` unpacked under .bench_build/ab/<sha>/ (kept,
# so a second run against the same rev skips the cold build); B is this
# checkout as it stands, uncommitted edits included. perfbench/run.py
# derives its build directory from its own root, so each side builds
# its own Release harness.
#
# For every selected workload, the script runs
# `perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0`
# N times per side, in pairs that alternate which side goes first
# (A B, B A, ...). Per end-to-end metric it prints both sides' medians
# and quartiles, their ratio B/A, how many pairs B won and two
# verdicts:
#   - the gate: fails (exit 1) when a run reports `correct: false` or
#     `failed > 0`, or when a ratio is worse than the metric's
#     BENCHMARK.json `bound` in the direction its `better` names;
#   - the claim: "gain" when B won at least 9 of every 10 pairs and
#     B's median beats A's by more than A's interquartile range, else
#     "-". A claim never changes the exit status.
# Exit 2 means the gate could not run (bad arguments, rev does not
# resolve, or a run crashed).
#
# Both sides must run on one quiet host: perfbench rescales times by
# its host probe, but two runs only compare under one fingerprint, and
# the table prints it. EXPERIMENTS.md keeps such tables as the perf
# history: fingerprint, pairs and ratios, never absolute snapshots.

set -euo pipefail

# The gate's defaults. On a shared 4-vCPU host one run's value can
# move by 30 % or more, and with 3 pairs an unchanged setup_s once read
# 35 % worse; 5 pairs take the median over enough runs to hold the
# 0.25 bounds. A claim wants 10 pairs (9 wins of 10).
PAIRS=5
SECONDS_PER_RUN=4
SEED=1
selected=()

usage() {
    echo "usage: tools/perf_ab.sh [--pairs N] [--seed S]" \
         "[--workload W]... [rev]" >&2
    exit 2
}

repo_root=$(cd "$(dirname "$0")/.." && pwd)
rev=
while [ $# -gt 0 ]; do
    case $1 in
        --pairs|--seed|--workload)
            [ $# -ge 2 ] || usage
            case $1 in
                --pairs) PAIRS=$2 ;;
                --seed) SEED=$2 ;;
                --workload) selected+=("$2") ;;
            esac
            shift 2 ;;
        -*) usage ;;
        *)
            [ -z "$rev" ] || usage
            rev=$1
            shift ;;
    esac
done
rev=${rev:-HEAD~1}
case $PAIRS in ''|*[!0-9]*|0) usage ;; esac
case $SEED in ''|*[!0-9]*) usage ;; esac

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$repo_root/BENCHMARK.json")
if [ ${#selected[@]} -gt 0 ]; then
    for w in "${selected[@]}"; do
        case " $workloads " in
            *" $w "*) ;;
            *) echo "perf_ab: unknown workload '$w' (BENCHMARK.json:" \
                    "$workloads)" >&2
               exit 2 ;;
        esac
    done
    workloads="${selected[*]}"
fi

if ! sha=$(git -C "$repo_root" rev-parse --verify --quiet \
        "$rev^{commit}"); then
    echo "perf_ab: cannot resolve '$rev' to a commit (a shallow clone" \
         "has no parent; fetch more history or pass a rev)" >&2
    exit 2
fi

# Each side's run.py must build into its own root, not a shared
# CARGO_TARGET_DIR.
unset CARGO_TARGET_DIR

side_a="$repo_root/.bench_build/ab/$sha"
if [ ! -f "$side_a/perfbench/run.py" ]; then
    echo "perf_ab: exporting $rev ($sha) to $side_a" >&2
    rm -rf "$side_a.tmp"
    mkdir -p "$side_a.tmp"
    git -C "$repo_root" archive "$sha" | tar -x -C "$side_a.tmp"
    if [ ! -f "$side_a.tmp/perfbench/run.py" ]; then
        echo "perf_ab: $rev has no perfbench/run.py" >&2
        rm -rf "$side_a.tmp"
        exit 2
    fi
    rm -rf "$side_a"
    mv "$side_a.tmp" "$side_a"
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT


# One run.py invocation; keeps its last two stdout lines (fingerprint
# and result) in $out/<workload>.<side>.<pair>.
run_side() {
    local side=$1 root=$2 workload=$3 pair=$4
    local file="$out/$workload.$side.$pair"
    echo "perf_ab: $workload pair $pair/$PAIRS side $side" >&2
    if ! python3 "$root/perfbench/run.py" --workload "$workload" \
            --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace 0 \
            > "$file.stdout" 2> "$file.log"; then
        tail -n 30 "$file.log" >&2
        echo "perf_ab: run.py failed for $workload on side $side" >&2
        exit 2
    fi
    tail -n 2 "$file.stdout" > "$file"
}

for workload in $workloads; do
    for pair in $(seq 1 "$PAIRS"); do
        # Alternate which side runs first: A B, B A, A B, ...
        if [ $((pair % 2)) = 1 ]; then
            run_side A "$side_a" "$workload" "$pair"
            run_side B "$repo_root" "$workload" "$pair"
        else
            run_side B "$repo_root" "$workload" "$pair"
            run_side A "$side_a" "$workload" "$pair"
        fi
    done
done

echo "perf_ab: A = $rev ($sha), B = working tree" \
     "($(git -C "$repo_root" rev-parse --short HEAD)$(
        git -C "$repo_root" diff --quiet HEAD 2>/dev/null || echo '+edits'))"
python3 - "$repo_root/BENCHMARK.json" "$out" "$PAIRS" "$SEED" $workloads \
    <<'EOF'
import json
import os
import statistics
import sys

spec_path, out = sys.argv[1], sys.argv[2]
pairs, seed, workloads = int(sys.argv[3]), sys.argv[4], sys.argv[5:]
metrics = json.load(open(spec_path))["end_to_end"]


def load(workload, side, pair):
    with open(os.path.join(out, "%s.%s.%d" % (workload, side, pair))) as f:
        fingerprint, result = f.read().splitlines()
    return fingerprint, json.loads(result)




def quartiles(xs):
    # Inclusive method: the quartiles stay within the observed range.
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


failures = []
print("%-14s %-18s %11s %-23s %11s %-23s %7s %6s  %-5s %s" % (
    "workload", "metric", "A median", " A q1..q3", "B median",
    " B q1..q3", "B/A", "B won", "claim", "verdict"))
for w in workloads:
    runs = {s: [load(w, s, p) for p in range(1, pairs + 1)] for s in "AB"}
    for side, reps in runs.items():
        for fingerprint, rep in reps:
            if not rep["correct"] or rep["failed"] > 0:
                failures.append("%s side %s: correct=%s failed=%d" % (
                    w, side, rep["correct"], rep["failed"]))
    print("%s %s" % (w, runs["B"][0][0]))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [rep["metrics"][name]["value"] for _, rep in runs["A"]]
        b = [rep["metrics"][name]["value"] for _, rep in runs["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        ratio = med_b / med_a if med_a > 0 else 1.0
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        worse = ratio - 1.0 if lower else 1.0 - ratio
        gap = med_a - med_b if lower else med_b - med_a
        claim = "gain" if (10 * won >= 9 * pairs and
                           gap > qa[1] - qa[0]) else "-"
        verdict = "ok"
        if worse > m["bound"]:
            verdict = "WORSE than bound %g" % m["bound"]
            failures.append("%s %s: B/A %.3f" % (w, name, ratio))
        print("%-14s %-18s %11.5g %-23s %11.5g %-23s %7.3f %3d/%-2d  %-5s %s"
              % (w, name, med_a, " %.5g..%.5g" % qa, med_b,
                 " %.5g..%.5g" % qb, ratio, won, pairs, claim, verdict))
for f in failures:
    print("perf_ab: FAILED: " + f, file=sys.stderr)
print("perf_ab: %s (%d pairs, seed %s, bounds from BENCHMARK.json)" % (
    "FAIL" if failures else "pass", pairs, seed))
sys.exit(1 if failures else 0)
EOF

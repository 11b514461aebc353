#!/usr/bin/env bash
# Same-host A/B of the repository benchmark (perfbench): a parent
# revision (A) against the working tree (B), the one perf gate.
#
#   tools/perf_ab.sh [rev]        (rev defaults to HEAD~1)
#
# A is `git archive rev` unpacked under .bench_build/ab/<sha>/ (kept,
# so a second run against the same rev skips the cold build); B is this
# checkout as it stands, uncommitted edits included. perfbench/run.py
# derives its build directory from its own root, so each side builds
# its own Release harness.
#
# For every workload BENCHMARK.json lists, the script runs
# `perfbench/run.py --workload W --seed 1 --seconds SECONDS --trace 0`
# PAIRS times per side, in pairs that alternate which side goes first
# (A B, B A, ...). Per end-to-end metric it prints both sides' medians,
# their ratio B/A and how many pairs B won. It fails (exit 1) when a
# run reports `correct: false` or `failed > 0`, or when a ratio is
# worse than the metric's BENCHMARK.json `bound` in the direction its
# `better` names. Exit 2 means the gate could not run (rev does not
# resolve, or a run crashed).
#
# Both sides must run on one quiet host: perfbench rescales times by
# its host probe, but two runs only compare under one fingerprint, and
# the table prints it. EXPERIMENTS.md keeps such tables as the perf
# history: fingerprint, pairs and ratios, never absolute snapshots.

set -euo pipefail

# Fixed on purpose: the gate takes no tuning knobs. On a shared 4-vCPU
# host one run's value can move by 30 % or more, and with 3 pairs an
# unchanged setup_s once read 35 % worse; 5 pairs take the median over
# enough runs to hold the 0.25 bounds.
PAIRS=5
SECONDS_PER_RUN=4
SEED=1

repo_root=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:-HEAD~1}
if [ $# -gt 1 ]; then
    echo "usage: tools/perf_ab.sh [rev]" >&2
    exit 2
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

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$repo_root/BENCHMARK.json")

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


failures = []
print("%-14s %-18s %12s %12s %8s %6s  %s" % (
    "workload", "metric", "A median", "B median", "B/A", "B won", "verdict"))
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
        ratio = med_b / med_a if med_a > 0 else 1.0
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        worse = ratio - 1.0 if lower else 1.0 - ratio
        verdict = "ok"
        if worse > m["bound"]:
            verdict = "WORSE than bound %g" % m["bound"]
            failures.append("%s %s: B/A %.3f" % (w, name, ratio))
        print("%-14s %-18s %12.6g %12.6g %8.3f %4d/%d  %s" % (
            w, name, med_a, med_b, ratio, won, pairs, verdict))
for f in failures:
    print("perf_ab: FAILED: " + f, file=sys.stderr)
print("perf_ab: %s (%d pairs, seed %s, bounds from BENCHMARK.json)" % (
    "FAIL" if failures else "pass", pairs, seed))
sys.exit(1 if failures else 0)
EOF

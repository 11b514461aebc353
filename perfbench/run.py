#!/usr/bin/env python3
"""Repository benchmark for the c8t simulator.

Builds the harness (perfbench/CMakeLists.txt, Release) on first use, then
runs one workload in fresh, cold harness processes for --seconds and
prints one JSON result line last:

    python3 perfbench/run.py --workload spec_sweep --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics (medians over the fresh processes
of one run); --trace 1 prints the per-layer metrics of traced runs. Every
result carries the host fingerprint on the line before it; never compare
results across fingerprints.

Correctness: every process digests its result documents and checks what
it can in-process; run.py also requires every process of a run to agree
on the digest and on the stream/fault memo miss counts, a 1-worker run to
reproduce the N-worker digest, and the digest recorded in digests.json
for the seed when there is one (seeds 1 and 2; seed 2 is held out for
confirming performance claims). `--record` rewrites the entry for
--seed instead of checking it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ("spec_sweep", "hierarchy_vdd", "explore_grid", "daemon_mix")
# Workloads whose result must not depend on the worker count.
SWEEPS = ("spec_sweep", "hierarchy_vdd", "explore_grid")
# Workloads whose traced run reconciles a 1-worker layer decomposition.
RECONCILED = ("spec_sweep", "hierarchy_vdd")
MIN_ITERATIONS = 3
# Every process times a fixed benchmark-owned probe on all its worker
# threads right before and right after its measured window. End-to-end
# times are rescaled to a host on which that probe takes PROBE_REF_S of
# wall time, and PROBE_REF_S of CPU time per worker thread (a quiet
# 4-vCPU Xeon): a shared host that slows down or time-slices for
# minutes moves the probe and the workload alike, and cancels out; a
# change to the simulator moves only the workload. Wall-clock times
# scale by the probe's wall time, CPU time by the probe's CPU time. Raw
# host times go to stderr.
PROBE_REF_S = 0.075
MIN_TRACE_ROUNDS = 5
# A traced run starts no new round that would end after this many
# seconds, minimum or not: one run must end within 180 s.
TRACE_BUDGET_S = 140
# ROADMAP item 1: the 1-worker layer self times sum to within 5 % of
# the untraced 1-worker engine time. Reported, not a failed check: on a
# shared host one process's gap can move by more than 10 %
# (perfbench/README.md).
RECONCILE_BOUND = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


SPANS_DIR = os.path.join(os.path.dirname(build_dir()), "spans")


def build():
    """Configure (once) and build the harness; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: no simulator sources under %s/src"
                         % ROOT)
    out = build_dir()
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "c8tbench")


class Runner:
    """Runs harness processes and keeps the tally of checks."""

    def __init__(self, binary, workload, seed, workers, workdir):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def run(self, workers=None, trace=False, check_frames=False):
        """One fresh harness process; its report, or None on a crash."""
        cmd = [self.binary, "--workload", self.workload,
               "--seed", str(self.seed),
               "--workers", str(workers or self.workers),
               "--workdir", self.workdir]
        if trace:
            cmd.append("--trace")
        if check_frames:
            cmd.append("--check-frames")
        spawn = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=170)
        lines = proc.stdout.strip().splitlines()
        try:
            rep = json.loads(lines[-1])
        except (IndexError, ValueError):
            log(proc.stderr)
            self.check(False, "harness crashed (exit %d)" % proc.returncode)
            return None
        rep["setup_s"] = rep["setup_end_mono"] - spawn
        rep["stderr"] = proc.stderr
        if trace:
            # Keep the latest span file of each workload and seed.
            name = "spans-%s-%d.jsonl" % (self.workload, self.seed)
            os.makedirs(SPANS_DIR, exist_ok=True)
            os.replace(os.path.join(ROOT, self.workdir, name),
                       os.path.join(SPANS_DIR, name))
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.errors.extend(rep["errors"])
        if proc.returncode != 0 and not rep["failed"]:
            self.check(False, "harness exit %d" % proc.returncode)
        return rep


def agree(runner, reps, key, what):
    """Every report of @p reps must carry the first one's @p key."""
    for rep in reps[1:]:
        runner.check(rep[key] == reps[0][key],
                     "%s differs between processes: %s vs %s"
                     % (what, rep[key], reps[0][key]))


def record_key(workload, seed, workers):
    # The daemon mix has one client per worker, so its digest depends
    # on the worker count; the sweeps' results do not.
    if workload == "daemon_mix":
        return "%d/c%d" % (seed, workers)
    return str(seed)


def check_recorded(runner, rep, record):
    """Compare with (or, with --record, rewrite) digests.json."""
    try:
        with open(DIGESTS) as f:
            table = json.load(f)
    except FileNotFoundError:
        table = {}
    key = record_key(runner.workload, runner.seed, runner.workers)
    entry = {"digest": rep["digest"], "stream_misses": rep["stream_misses"],
             "fault_misses": rep["fault_misses"]}
    if record:
        table.setdefault(runner.workload, {})[key] = entry
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
        log("run.py: recorded %s seed %s: %s" % (runner.workload, key, entry))
        return
    want = table.get(runner.workload, {}).get(key)
    if want is not None:
        runner.check(want == entry, "recorded result for seed %s differs: "
                     "%s vs %s" % (key, entry, want))


def percentile(values, q):
    """Nearest-rank percentile of @p values (q in [0, 100])."""
    if not values:
        return 0.0
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def daemon_latency(reps):
    """Client-side latency metrics pooled over processes."""
    jobs = [x for r in reps for x in r["job_latency_ms"]]
    hits = [x for r in reps for x in r["hit_latency_us"]]
    walls = sum(r["wall_s"] for r in reps)
    return {
        "daemon.jobs_per_s": sum(r["jobs"] for r in reps) / walls,
        "daemon.job_p50_ms": percentile(jobs, 50),
        "daemon.job_p99_ms": percentile(jobs, 99),
        "daemon.job_samples": len(jobs),
        "daemon.hit_p50_us": percentile(hits, 50),
        "daemon.hit_p99_us": percentile(hits, 99),
        "daemon.hit_samples": len(hits),
    }


def same_host(reps):
    """The processes whose fingerprint is the run's most common one.

    The SIMD level is resolved per process by stopwatch, so a process
    on a busy host can land on another level: that is another program,
    and its timings are not pooled with the rest."""
    keys = [json.dumps(r["fingerprint"], sort_keys=True) for r in reps]
    modal = max(keys, key=keys.count) if keys else None
    return [r for r, k in zip(reps, keys) if k == modal]


def fingerprint_line(reps, workers, seed, seconds):
    prints = []
    for r in reps:
        if r["fingerprint"] not in prints:
            prints.append(r["fingerprint"])
    return "fingerprint: " + json.dumps(
        {"hosts": prints, "workers": workers, "seed": seed,
         "run_seconds": seconds, "processes": len(reps)}, sort_keys=True)


def run_untraced(runner, seconds, record):
    reps = []
    deadline = time.monotonic() + seconds
    while not reps or time.monotonic() < deadline or \
            len(reps) < MIN_ITERATIONS:
        rep = runner.run(check_frames=(not reps and
                                       runner.workload == "daemon_mix"))
        if rep is None:
            break
        reps.append(rep)
    if not reps:
        return reps, {}
    agree(runner, reps, "digest", "result digest")
    agree(runner, reps, "stream_misses", "stream-cache miss count")
    agree(runner, reps, "fault_misses", "fault-cache miss count")
    check_recorded(runner, reps[0], record)
    if runner.workload in SWEEPS:
        one = runner.run(workers=1)
        if one is not None:
            runner.check(one["digest"] == reps[0]["digest"],
                         "1-worker digest differs from %d-worker digest"
                         % runner.workers)

    timed = same_host(reps)
    med = statistics.median

    def scaled(key, probe="probe_s", ref=PROBE_REF_S):
        return [r[key] * ref / r[probe] for r in timed]

    metrics = {
        "wall_s": med(scaled("wall_s")),
        "cpu_s": med(scaled("cpu_s", "probe_cpu_s",
                            PROBE_REF_S * runner.workers)),
        "sim_maccess_per_s": med(r["sim_accesses"] / w / 1e6 for r, w in
                                 zip(timed, scaled("wall_s"))),
        "setup_s": med(scaled("setup_s")),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in timed),
    }
    extra = {
        "raw_wall_s": med(r["wall_s"] for r in timed),
        "raw_cpu_s": med(r["cpu_s"] for r in timed),
        "raw_setup_s": med(r["setup_s"] for r in timed),
        "probe_s": med(r["probe_s"] for r in timed),
        "probe_cpu_s": med(r["probe_cpu_s"] for r in timed),
        "jobs_per_s": med(r["jobs"] / r["wall_s"] for r in timed),
    }
    if runner.workload == "daemon_mix":
        extra.update(daemon_latency(timed))
        extra["daemon.memo_hit_ratio"] = med(
            r["layers"]["daemon.memo_hit_ratio"] for r in timed)
    log("run.py: %s seed %d, %d of %d processes on the modal host: %s" % (
        runner.workload, runner.seed, len(timed), len(reps), ", ".join(
            "%s %.6g" % kv for kv in sorted({**metrics, **extra}.items()))))
    return reps, metrics


def run_traced(runner, seconds, names):
    """Rounds of an untraced and a traced process, in alternating order;
    per-layer metrics are medians over rounds."""
    untraced, traced = [], []
    start = time.monotonic()
    deadline = start + seconds
    round_s = 0.0
    while (len(traced) < MIN_TRACE_ROUNDS or time.monotonic() < deadline) \
            and time.monotonic() - start + round_s < TRACE_BUDGET_S:
        round_start = time.monotonic()
        first_traced = len(traced) % 2 == 1
        rep = runner.run(trace=first_traced)
        other = runner.run(trace=not first_traced) if rep else None
        if rep is None or other is None:
            break
        if first_traced:
            rep, other = other, rep
        untraced.append(rep)
        traced.append(other)
        if runner.workload == "daemon_mix":
            # More untraced samples for the pooled latency percentiles.
            extra = runner.run()
            if extra is not None:
                untraced.append(extra)
        round_s = time.monotonic() - round_start
    if not traced:
        return untraced, {}

    agree(runner, untraced, "digest", "result digest")
    agree(runner, untraced, "stream_misses", "stream-cache miss count")
    check_recorded(runner, untraced[0], record=False)
    everything = untraced + traced
    keep = {id(r) for r in same_host(everything)}
    rounds = [(u, t) for u, t in zip(untraced, traced)
              if id(u) in keep and id(t) in keep] or \
        list(zip(untraced, traced))
    traced = [t for _, t in rounds]

    med = statistics.median
    layers = {}
    for name in names:
        vals = [r["layers"][name] for r in traced if name in r["layers"]]
        layers[name] = med(vals) if vals else 0.0
    layers["trace_overhead_ratio"] = med(t["wall_s"] / u["wall_s"]
                                         for u, t in rounds)
    layers["host.probe_s"] = med(r["probe_s"] for r in untraced)
    if runner.workload == "daemon_mix":
        layers.update(daemon_latency([r for r in untraced if id(r) in keep]
                                     or untraced))
    if runner.workload in RECONCILED:
        # Each traced process times the engine's untraced 1-worker run
        # and the layer decomposition job by job, interleaved.
        gaps = [t["layers"]["decomp.layer_sum_s"] /
                t["layers"]["decomp.engine_s"] - 1.0 for t in traced]
        gap = layers["reconcile_gap_ratio"] = med(gaps)
        log("run.py: %s at 1 worker: layer self times sum to %.4f s, "
            "untraced engine %.4f s: gap %+.2f%% (per process: %s), %s"
            % (runner.workload,
               med(t["layers"]["decomp.layer_sum_s"] for t in traced),
               med(t["layers"]["decomp.engine_s"] for t in traced),
               100.0 * gap, " ".join("%+.2f%%" % (100 * g) for g in gaps),
               "within 5 %" if abs(gap) <= RECONCILE_BOUND
               else "NOT within 5 %"))
        sys.stderr.write(traced[-1]["stderr"])
    log("run.py: %s trace overhead %.4f (traced / untraced N-worker wall)"
        % (runner.workload, layers["trace_overhead_ratio"]))
    return everything, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite digests.json for --seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in listed]
    binary = build()
    workers = len(os.sched_getaffinity(0))
    workdir = os.path.join(os.path.dirname(build_dir()), "run",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(binary, args.workload, args.seed, workers,
                    os.path.relpath(workdir, ROOT))
    try:
        if args.trace:
            reps, values = run_traced(runner, args.seconds, names)
        else:
            reps, values = run_untraced(runner, args.seconds, args.record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not values:
        raise SystemExit("run.py: no process completed")

    for err in runner.errors[:20]:
        log("run.py: FAILED: " + err)
    print(fingerprint_line(reps, workers, args.seed, args.seconds))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in listed},
    }))


if __name__ == "__main__":
    main()

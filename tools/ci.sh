#!/usr/bin/env bash
# One-command verification gate: the tier-1 suite plus sanitizer
# builds and a Release performance A/B against the parent commit.
#
#   1. Configure + build the default tree and run the full ctest suite
#      (this is the roadmap's tier-1 definition of "not broken").
#   2. Configure + build an ASan/UBSan tree (-DC8T_ASAN=ON) and run the
#      stream/cache/sweep/pool/alloc tests, the SEC-DED codec and
#      fault-map campaign tests, the daemon tests plus the three
#      users of the shared core::Memo (stream cache, fault-map cache,
#      result memo), the array, Set-Buffer, controller and
#      explorer tests (row views index one flat buffer per array),
#      the simulator tests (a plan group's members share one
#      FunctionalMemory and copy each miss fill from one staged block),
#      the two-level tests (l2_test, hierarchy_test: the L2 fetch,
#      write-back and back-invalidation paths are the newest
#      pointer-heavy surface),
#      the tag-array and packed-replacement tests (the live path and
#      the chunk planner share one set of replacement transitions, and
#      the planner indexes a stack-local tag copy),
#      the Vdd sweep tests (a job of several supplies writes each
#      point's fault-map cell through a captured table reference, and
#      supplies that share a replay read one shared stack)
#      and the WordMap tests (FunctionalMemory's page table), the trace
#      reader tests (trace files are outside input) and the frame
#      decoder tests (c8td's wire input) under it.
#      halt_on_error is the sanitizer default, so any heap misuse
#      fails the script.
#   3. Configure + build a standalone UBSan tree (-DC8T_UBSAN=ON,
#      -fno-sanitize-recover=all) and run the voltage-model tests
#      under it (the numeric subsystem with the most UB surface:
#      pow/exp/ceil scaling, bit_cast seeding, fault-map index math),
#      plus the JobSpec, c8tsim option, trace reader, frame decoder
#      and explorer tests (the parsers of outside input: range checks
#      before every narrowing cast; the explorer test drives seeded
#      mutants of a real checkpoint through the checkpoint loader),
#      and the stream-identity tests (the stream cache packs every
#      access into 16 bytes with shifts and masks).
#   4. Configure + build a TSan tree (-DC8T_TSAN=ON) and run the
#      parallel sweep, worker pool, metrics, Vdd sweep, explorer,
#      fault-map memo, stream cache, daemon and result-memo tests under
#      it (the data-race surface: every sweep runs on a SweepPool and
#      folds its telemetry into the process-wide metrics; sweep
#      workers acquire streams from the shared StreamCache, Vdd sweeps
#      and explores run their fault-map campaigns on the workers
#      against the shared FaultMapCache, and c8td coalesces concurrent
#      identical requests on its result memo — all three instances of
#      the one single-flight core::Memo).
#   Stages 5-8 drive the binaries of the tier-1 tree.
#   5. Metrics smoke: run the fig11 sweep with the phase profiler off
#      and on (C8T_PROF=1 + C8T_METRICS) and require byte-identical
#      stdout plus a non-empty Prometheus exposition — profiling must
#      observe, never perturb. Then run c8tsim --all on a 16-way shape
#      plain and with an event ring and Chrome trace attached
#      (--trace-events 4096 --chrome-trace) and require byte-identical
#      stdout and --stats-json: tracing must not change a result.
#      Last, run c8tsim --vdd-sweep --repl random at --jobs 1 and
#      --jobs 4 and require byte-identical --stats-json: a single-level
#      sweep keeps all four schemes in one job, so a four-member live
#      (Random) plan group replays over one shared memory end to end.
#   6. Explorer smoke: the same small design-space explore run
#      uninterrupted at --jobs 1 and --jobs 4 (documents and checkpoint
#      files must be byte-identical: two shards are in flight at a
#      time), interrupted after one shard (exactly one checkpoint must
#      be left), and resumed from that checkpoint; the resumed run's
#      --stats-json document must be byte-identical to the
#      uninterrupted one (DESIGN.md §12's resumability contract,
#      checked end-to-end through the c8tsim CLI).
#   7. Daemon smoke: start c8td on a throwaway socket, run three
#      concurrent c8tctl clients (two run kinds plus a Vdd sweep) and
#      require each answer to be byte-identical to the one-shot
#      c8tsim --stats-json document for the same operating point; then
#      exercise the SIGTERM drain — a job submitted just before the
#      signal must still be answered and the daemon must exit 0.
#   8. Hierarchy smoke: run a two-level run spec and a two-level
#      vdd_sweep spec through c8td and require each answer
#      byte-identical to the one-shot c8tsim --l2 document for the
#      same operating point (the shared-JobSpec contract extended to
#      the hierarchy), and require a small two-level explore to write
#      the same document at --jobs 1 and --jobs 4 (a hierarchy sweep
#      runs one job per timing class and scheme, so its job layout
#      depends on nothing but the spec).
#   9. Perf gate: tools/perf_ab.sh HEAD~1, a same-host A/B of the
#      repository benchmark (perfbench) between the parent commit and
#      this checkout, alternating runs of every BENCHMARK.json workload.
#      It fails when a run is incorrect (digest or check failure) or
#      when any end-to-end metric's median ratio is worse than its
#      BENCHMARK.json bound (0.25 today). A parent that does not
#      resolve (e.g. a shallow clone) fails the stage with a message;
#      set C8T_CI_SKIP_PERF=1 to skip it explicitly.
#
# Usage: tools/ci.sh [jobs]        (default: nproc)
# Exit status: non-zero if any build, test or perf gate fails.

set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${1:-$(nproc)}

# Build the named test binaries in tree $1 (e.g. build-asan), then run
# each of them there.
sanitizer_tests() {
    local tree=$1
    shift
    cmake --build "$repo_root/$tree" -j "$jobs" --target "$@"
    for t in "$@"; do
        echo "---- ${tree#build-}: $t ----"
        "$repo_root/$tree/tests/$t"
    done
}

# Run the tier-1 c8tsim with the remaining arguments at --jobs 1 and
# --jobs 4 in directory $1 (documents j1.json/j4.json, checkpoint
# directories ckpt-j1/ckpt-j4, which only an explore fills) and fail
# unless both the --stats-json documents and the checkpoint sets are
# byte-identical. $2 names the run in the failure message.
same_at_jobs_1_and_4() {
    local dir=$1 what=$2
    shift 2
    for j in 1 4; do
        mkdir "$dir/ckpt-j$j"
        "$repo_root/build/tools/c8tsim" "$@" --jobs "$j" \
            --checkpoint-dir "$dir/ckpt-j$j" \
            --stats-json "$dir/j$j.json" > /dev/null
    done
    if ! cmp -s "$dir/j1.json" "$dir/j4.json" ||
        ! diff -r "$dir/ckpt-j1" "$dir/ckpt-j4" > /dev/null; then
        echo "ci: $what differs between --jobs 1 and --jobs 4" >&2
        diff "$dir/j1.json" "$dir/j4.json" >&2 || true
        exit 1
    fi
}

# Fail unless the c8td answer $1/$2.json is byte-identical to the
# one-shot tier-1 c8tsim --stats-json document for the remaining
# arguments (the shared-JobSpec contract, end-to-end through the real
# binaries). Stops the daemon (daemon_pid) on a mismatch.
same_as_one_shot() {
    local dir=$1 name=$2
    shift 2
    "$repo_root/build/tools/c8tsim" "$@" \
        --stats-json "$dir/$name.ref" > /dev/null
    if ! cmp -s "$dir/$name.json" "$dir/$name.ref"; then
        echo "ci: daemon answer '$name' differs from one-shot c8tsim" >&2
        diff "$dir/$name.json" "$dir/$name.ref" >&2 || true
        kill "$daemon_pid" 2>/dev/null || true
        exit 1
    fi
}

# Start the tier-1 c8td on socket $1 in the background and wait for the
# socket to appear; sets daemon_pid. Fails the script if it never does.
start_daemon() {
    "$repo_root/build/tools/c8td" --socket "$1" > /dev/null &
    daemon_pid=$!
    for _ in $(seq 1 100); do
        if [ -S "$1" ]; then return 0; fi
        sleep 0.1
    done
    echo "ci: c8td did not come up on $1" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
}

echo "==== tier-1: build + full test suite ===="
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$jobs"
ctest --test-dir "$repo_root/build" --output-on-failure -j "$jobs"

echo "==== asan: build + stream/sweep/simulator/vdd/pool/alloc/ecc/memo/daemon/array/trace/frame/cache/two-level tests ===="
cmake -B "$repo_root/build-asan" -S "$repo_root" -DC8T_ASAN=ON
sanitizer_tests build-asan \
    stream_identity_test simd_identity_test sweep_test \
    worker_pool_test hot_path_alloc_test functional_mem_test \
    ecc_test fault_injection_test daemon_test result_memo_test \
    fault_cache_test array_test set_buffer_test controller_test \
    explorer_test simulator_test vdd_sweep_test word_map_test \
    trace_io_test net_frame_test cache_test packed_repl_property_test \
    l2_test hierarchy_test

echo "==== ubsan: build + voltage-model, spec-parser, trace-reader, frame-decoder, checkpoint-loader and stream-packing tests ===="
cmake -B "$repo_root/build-ubsan" -S "$repo_root" -DC8T_UBSAN=ON
sanitizer_tests build-ubsan \
    vmodel_test vdd_sweep_test job_spec_test app_options_test \
    trace_io_test net_frame_test explorer_test stream_identity_test

echo "==== tsan: build + parallel sweep, memo and daemon tests ===="
cmake -B "$repo_root/build-tsan" -S "$repo_root" -DC8T_TSAN=ON
sanitizer_tests build-tsan \
    sweep_test worker_pool_test metrics_test vdd_sweep_test \
    explorer_test fault_cache_test daemon_test result_memo_test
cmake --build "$repo_root/build-tsan" -j "$jobs" --target \
    stream_identity_test
echo "---- tsan: stream_identity_test (StreamCacheBehaviour.*) ----"
"$repo_root/build-tsan/tests/stream_identity_test" \
    --gtest_filter='StreamCacheBehaviour.*'

echo "==== metrics: profiling byte-identity + exposition ===="
metrics_plain=$(mktemp)
metrics_prof=$(mktemp)
metrics_expo=$(mktemp)
C8T_BENCH_ACCESSES=20000 C8T_JOBS=2 \
    "$repo_root/build/bench/fig11_cache_size" > "$metrics_plain"
C8T_BENCH_ACCESSES=20000 C8T_JOBS=2 C8T_PROF=1 \
    C8T_METRICS="$metrics_expo" \
    "$repo_root/build/bench/fig11_cache_size" > "$metrics_prof"
if ! cmp -s "$metrics_plain" "$metrics_prof"; then
    echo "ci: fig11 output differs with profiling enabled" >&2
    diff "$metrics_plain" "$metrics_prof" >&2 || true
    exit 1
fi
if ! grep -q '^c8t_phase_seconds_total' "$metrics_expo"; then
    echo "ci: metrics exposition missing phase times" \
         "(C8T_METRICS produced no usable output)" >&2
    exit 1
fi
rm -f "$metrics_plain" "$metrics_prof" "$metrics_expo"
echo "ci: profiling byte-identity holds; exposition non-empty"

trace_dir=$(mktemp -d)
trace_args=(--all --ways 16 --accesses 50000 --jobs 2)
"$repo_root/build/tools/c8tsim" "${trace_args[@]}" \
    --stats-json "$trace_dir/plain.json" > "$trace_dir/plain.txt"
"$repo_root/build/tools/c8tsim" "${trace_args[@]}" \
    --trace-events 4096 --chrome-trace "$trace_dir/trace.json" \
    --stats-json "$trace_dir/traced.json" > "$trace_dir/traced.txt"
for f in json txt; do
    if ! cmp -s "$trace_dir/plain.$f" "$trace_dir/traced.$f"; then
        echo "ci: c8tsim --all --ways 16 output ($f) differs with" \
             "--trace-events attached" >&2
        diff "$trace_dir/plain.$f" "$trace_dir/traced.$f" >&2 || true
        exit 1
    fi
done
if [ ! -s "$trace_dir/trace.json" ]; then
    echo "ci: --chrome-trace wrote no trace" >&2
    exit 1
fi
rm -rf "$trace_dir"
echo "ci: tracing byte-identity holds on the 16-way shape"

random_dir=$(mktemp -d)
same_at_jobs_1_and_4 "$random_dir" "c8tsim --vdd-sweep --repl random" \
    --vdd-sweep --repl random --accesses 20000
rm -rf "$random_dir"
echo "ci: a shared-memory Random plan group is worker-count independent"

echo "==== explorer: CLI worker-count and interrupt/resume byte-identity ===="
explore_dir=$(mktemp -d)
explore_args=(--explore --explore-workloads gcc,mcf
    --explore-sizes 16,32 --explore-ways 2,4 --explore-blocks 32
    --explore-vdd 1.0,0.8 --accesses 3000 --warmup 300 --shard-cells 3)
same_at_jobs_1_and_4 "$explore_dir" "explore document or checkpoint set" \
    "${explore_args[@]}"
mkdir "$explore_dir/resume"
"$repo_root/build/tools/c8tsim" "${explore_args[@]}" --jobs 2 \
    --checkpoint-dir "$explore_dir/resume" --explore-max-shards 1 > /dev/null
ckpts=$(find "$explore_dir/resume" -name '*.ckpt' | wc -l)
if [ "$ckpts" -ne 1 ]; then
    echo "ci: --explore-max-shards 1 left $ckpts checkpoints, not 1" >&2
    exit 1
fi
"$repo_root/build/tools/c8tsim" "${explore_args[@]}" --jobs 2 \
    --checkpoint-dir "$explore_dir/resume" \
    --stats-json "$explore_dir/resumed.json" > /dev/null
if ! cmp -s "$explore_dir/j1.json" "$explore_dir/resumed.json"; then
    echo "ci: resumed explore JSON differs from uninterrupted run" >&2
    diff "$explore_dir/j1.json" "$explore_dir/resumed.json" >&2 || true
    exit 1
fi
rm -rf "$explore_dir"
echo "ci: explorer is worker-count invariant and interrupt/resume is" \
     "byte-identical"

echo "==== daemon: c8td answers vs one-shot c8tsim + SIGTERM drain ===="
daemon_dir=$(mktemp -d)
daemon_sock="$daemon_dir/c8td.sock"
start_daemon "$daemon_sock"
"$repo_root/build/tools/c8tctl" --socket "$daemon_sock" \
    --output "$daemon_dir/a.json" \
    '{"kind":"run","workload":"spec:gcc","accesses":20000}' &
daemon_ca=$!
"$repo_root/build/tools/c8tctl" --socket "$daemon_sock" \
    --output "$daemon_dir/b.json" \
    '{"kind":"run","workload":"spec:mcf","accesses":20000,"cache":{"size_kb":32}}' &
daemon_cb=$!
"$repo_root/build/tools/c8tctl" --socket "$daemon_sock" \
    --output "$daemon_dir/c.json" \
    '{"kind":"vdd_sweep","workload":"spec:gcc","accesses":20000}' &
daemon_cc=$!
wait "$daemon_ca" "$daemon_cb" "$daemon_cc"
same_as_one_shot "$daemon_dir" a --workload spec:gcc --accesses 20000
same_as_one_shot "$daemon_dir" b --workload spec:mcf --accesses 20000 \
    --size 32
same_as_one_shot "$daemon_dir" c --vdd-sweep --workload spec:gcc \
    --accesses 20000
# SIGTERM drain: a job in flight when the signal lands must still get
# its final frame, and the daemon must exit cleanly.
"$repo_root/build/tools/c8tctl" --socket "$daemon_sock" \
    --output "$daemon_dir/d.json" \
    '{"kind":"run","workload":"spec:gcc","accesses":500000}' &
daemon_cd=$!
sleep 0.2
kill -TERM "$daemon_pid"
wait "$daemon_cd"
wait "$daemon_pid"
if ! [ -s "$daemon_dir/d.json" ]; then
    echo "ci: SIGTERM drain dropped the in-flight job's answer" >&2
    exit 1
fi
rm -rf "$daemon_dir"
echo "ci: daemon bytes match one-shot; SIGTERM drain delivered finals"

echo "==== hierarchy: daemon golden diff + worker-count invariance ===="
hier_dir=$(mktemp -d)
hier_sock="$hier_dir/c8td.sock"
start_daemon "$hier_sock"
"$repo_root/build/tools/c8tctl" --socket "$hier_sock" \
    --output "$hier_dir/h.json" \
    '{"kind":"run","workload":"spec:gcc","accesses":20000,"levels":[{"size_kb":256}]}'
"$repo_root/build/tools/c8tctl" --socket "$hier_sock" \
    --output "$hier_dir/v.json" \
    '{"kind":"vdd_sweep","workload":"spec:gcc","accesses":20000,"levels":[{"size_kb":256}]}'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
same_as_one_shot "$hier_dir" h --workload spec:gcc --accesses 20000 \
    --l2 256
same_as_one_shot "$hier_dir" v --vdd-sweep --workload spec:gcc \
    --accesses 20000 --l2 256
same_at_jobs_1_and_4 "$hier_dir" "two-level explore" \
    --explore --explore-workloads gcc --explore-sizes 16,32 \
    --explore-ways 4 --explore-blocks 32 --explore-vdd 1.0,0.8 \
    --explore-l2-sizes 256 --accesses 3000 --warmup 300
rm -rf "$hier_dir"
echo "ci: daemon hierarchy bytes match; two-level explore is" \
     "worker-count invariant"

echo "==== perf: perfbench A/B against the parent commit ===="
if [ "${C8T_CI_SKIP_PERF:-0}" = 1 ]; then
    echo "ci: perf gate skipped (C8T_CI_SKIP_PERF=1)"
else
    "$repo_root/tools/perf_ab.sh" HEAD~1
fi

echo "ci: all green"

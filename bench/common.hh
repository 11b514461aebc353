/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 *
 * Every bench prints the rows/series of one figure or table from the
 * paper (plus the derived averages the text quotes). Run lengths can be
 * scaled through the C8T_BENCH_ACCESSES environment variable; the
 * defaults are large enough for all reported statistics to be stable to
 * well under one percentage point.
 *
 * Observability (DESIGN.md §6) works on every bench with no code
 * changes: C8T_PROGRESS=1 heartbeats sweep progress to stderr and
 * C8T_CHROME_TRACE=<file> records a Perfetto-loadable trace of the
 * sweep schedule; C8T_PROF=1 with C8T_METRICS=<file> writes a
 * Prometheus exposition with the sweep's wall time split by phase.
 * Timing across commits is perfbench's job (perfbench/run.py,
 * tools/perf_ab.sh).
 */

#ifndef C8T_BENCH_COMMON_HH
#define C8T_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/decimal.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace c8t::bench
{

/**
 * Measurement window length (overridable via C8T_BENCH_ACCESSES).
 *
 * The override must be a whole positive decimal number; anything else
 * (trailing garbage like "10x", negatives, overflow, empty) is
 * rejected with a warning rather than silently truncated. The
 * effective run length is printed to stderr once per binary.
 */
inline std::uint64_t
measureAccesses()
{
    static const std::uint64_t chosen = [] {
        std::uint64_t v = 300'000;
        if (const char *env = std::getenv("C8T_BENCH_ACCESSES")) {
            const auto parsed = core::parseDecimal(env);
            if (!parsed || *parsed == 0) {
                std::cerr << "bench: ignoring invalid "
                             "C8T_BENCH_ACCESSES=\""
                          << env << "\" (want a positive integer)\n";
            } else {
                v = *parsed;
            }
        }
        std::cerr << "bench: measuring " << v
                  << " accesses per run (set C8T_BENCH_ACCESSES to "
                     "override)\n";
        return v;
    }();
    return chosen;
}

/** Warm-up window: 10 % of the measurement window. */
inline core::RunConfig
runConfig()
{
    const std::uint64_t n = measureAccesses();
    return core::RunConfig{n / 10, n};
}

/** Build one controller config per scheme over a common cache shape. */
inline std::vector<core::ControllerConfig>
schemeConfigs(const mem::CacheConfig &cache,
              const std::vector<core::WriteScheme> &schemes)
{
    std::vector<core::ControllerConfig> cfgs;
    cfgs.reserve(schemes.size());
    for (core::WriteScheme s : schemes) {
        core::ControllerConfig c;
        c.cache = cache;
        c.scheme = s;
        cfgs.push_back(c);
    }
    return cfgs;
}

/** Access reduction of @p r relative to the RMW baseline, in percent. */
inline double
reductionPct(const core::SchemeRunResult &rmw,
             const core::SchemeRunResult &r)
{
    if (rmw.demandAccesses == 0)
        return 0.0;
    return 100.0 * (1.0 - static_cast<double>(r.demandAccesses) /
                              static_cast<double>(rmw.demandAccesses));
}

/**
 * Run every SPEC profile through the given schemes on @p cache and
 * return per-benchmark results (outer index: benchmark, inner: scheme).
 *
 * Runs through the parallel sweep engine: one job per profile, fanned
 * across C8T_JOBS (default: hardware_concurrency) worker threads.
 * Results are byte-identical to the historical serial loop for any
 * worker count (every job owns its generator, memories and runner).
 */
inline std::vector<std::vector<core::SchemeRunResult>>
sweepSpec(const mem::CacheConfig &cache,
          const std::vector<core::WriteScheme> &schemes)
{
    const core::ParallelSweeper sweeper;
    return sweeper.run(core::specSweepJobs(cache, schemes), runConfig(),
                       "spec_sweep:" + cache.toString());
}

} // namespace c8t::bench

#endif // C8T_BENCH_COMMON_HH

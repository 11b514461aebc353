/**
 * @file
 * Fault-map campaign memo implementation.
 */

#include "core/fault_cache.hh"

#include <cstdio>

#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace c8t::core
{

namespace
{

/** Mirror the counters into the obs push-model registry. */
void
publish(const MemoStats &s)
{
    obs::Metrics::FaultCacheStats out;
    out.hits = s.hits;
    out.misses = s.misses;
    out.entries = s.entries;
    obs::globalMetrics().setFaultCache(out);
}

} // anonymous namespace

std::string
FaultMapCache::key(const sram::FaultMapConfig &cfg)
{
    // Hexfloat for the doubles: two configs compare equal exactly when
    // every generation-relevant bit matches.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu|%a|%d|%a|%u|%u|%u",
                  static_cast<unsigned long long>(cfg.runSeed), cfg.vdd,
                  static_cast<int>(cfg.cell), cfg.pfailCell, cfg.rows,
                  cfg.wordsPerRow, cfg.degree);
    return buf;
}

sram::FaultMapStats
FaultMapCache::evaluate(const sram::FaultMapConfig &cfg)
{
    bool hit = false;
    const Memo<sram::FaultMapStats, Charge>::Value stats =
        _memo.getOrCompute(
            key(cfg),
            [&cfg] {
                const obs::prof::ScopedPhase fault_scope(
                    obs::prof::Phase::FaultMap);
                return sram::runFaultMapCampaign(cfg);
            },
            hit);
    // Under the memo's lock, so concurrent pushes land in order and the
    // mirror never ends on a stale snapshot.
    _memo.withStats(publish);
    return *stats;
}

FaultMapCache &
globalFaultMapCache()
{
    // Leaked on purpose, like the other process-wide registries:
    // daemon worker threads may consult it arbitrarily late.
    static FaultMapCache *cache = new FaultMapCache;
    return *cache;
}

} // namespace c8t::core

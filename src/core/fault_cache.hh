/**
 * @file
 * Process-wide memoization of Monte-Carlo fault-map campaigns.
 *
 * A fault map's outcome is a pure function of its FaultMapConfig
 * (seed, voltage, cell, per-cell failure rate, geometry): the draws
 * are splitmix64-seeded from exactly those fields. Every voltage
 * sweep and explore evaluating the same operating point therefore
 * recomputes a known answer. Historically each runVddSweep /
 * runExplore call kept its own per-call memo; this cache hoists that
 * memo to process scope so campaigns are shared *across* requests —
 * the c8td daemon's whole reason to exist (DESIGN.md §13): a warm
 * daemon serves repeat operating points without re-running a single
 * Monte-Carlo draw.
 *
 * Correctness: the key serializes every FaultMapConfig field (doubles
 * as hexfloat, exactly), so a hit can only ever return the stats the
 * campaign itself would have produced — results are byte-identical
 * with the cache on, off, or shared between any number of requests.
 *
 * Storage is a core::Memo (core/memo.hh), so concurrent first
 * requests for one key run the campaign once. It keeps the reduced
 * FaultMapStats, not the maps, charged key + stats (~100 B) against
 * a fixed 16 MiB: about 10^5 campaigns, so a long-lived daemon stays
 * bounded without a knob.
 */

#ifndef C8T_CORE_FAULT_CACHE_HH
#define C8T_CORE_FAULT_CACHE_HH

#include <cstdint>
#include <string>

#include "core/memo.hh"
#include "sram/fault_injection.hh"

namespace c8t::core
{

/** Process-wide fault-map campaign memo. */
class FaultMapCache
{
  public:
    /** Observable behaviour (metrics, tests). */
    using Stats = MemoStats;

    /**
     * The stats of the campaign described by @p cfg: served from the
     * memo when an identical config was evaluated before (by anyone,
     * in any request), run via sram::runFaultMapCampaign otherwise.
     * Single-flight: concurrent first requests for one key run the
     * campaign once (one miss); the others wait for it and count as
     * hits, so the counters do not depend on thread timing.
     */
    sram::FaultMapStats evaluate(const sram::FaultMapConfig &cfg);

    /** Counter snapshot. */
    Stats stats() const { return _memo.stats(); }

    /** Drop every entry (tests; counters keep accumulating). */
    void clear() { _memo.clear(); }

    /** Exact serialization of @p cfg (the memo key). */
    static std::string key(const sram::FaultMapConfig &cfg);

  private:
    struct Charge
    {
        std::uint64_t operator()(const std::string &key,
                                 const sram::FaultMapStats &) const
        {
            return key.size() + sizeof(sram::FaultMapStats);
        }
    };

    Memo<sram::FaultMapStats, Charge> _memo{16ull << 20};
};

/** The process-global fault-map cache every sweep shares. */
FaultMapCache &globalFaultMapCache();

} // namespace c8t::core

#endif // C8T_CORE_FAULT_CACHE_HH

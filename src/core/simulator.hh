/**
 * @file
 * Simulation drivers: run workloads through controllers and collect
 * comparable result snapshots. Mirrors the paper's methodology of
 * evaluating every technique on the identical access stream in one run.
 */

#ifndef C8T_CORE_SIMULATOR_HH
#define C8T_CORE_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "core/controller.hh"
#include "core/level_stack.hh"
#include "trace/access.hh"

namespace c8t::core
{

/** Run length configuration. */
struct RunConfig
{
    /** Accesses run before statistics are reset (cache warm-up; the
     *  paper fast-forwards 1 B of its 10 B instructions). */
    std::uint64_t warmupAccesses = 30'000;

    /** Accesses measured after warm-up. These defaults are the DESIGN
     *  §2 run window the figure benches use; the benches scale both
     *  (measure = C8T_BENCH_ACCESSES, warm-up = a tenth of it) while
     *  c8tsim takes --accesses/--warmup. */
    std::uint64_t measureAccesses = 300'000;
};

/** Comparable per-(workload, scheme) result snapshot. */
struct SchemeRunResult
{
    /** Workload name. */
    std::string workload;

    /** Scheme name (toString(WriteScheme)). */
    std::string scheme;

    /** Requests serviced in the measurement window. */
    std::uint64_t requests = 0;

    /** Read requests. */
    std::uint64_t reads = 0;

    /** Write requests. */
    std::uint64_t writes = 0;

    /** Demand row operations: the paper's "cache accesses". */
    std::uint64_t demandAccesses = 0;

    /** Demand row reads. */
    std::uint64_t demandRowReads = 0;

    /** Demand row writes. */
    std::uint64_t demandRowWrites = 0;

    /** Miss-handling row operations (fills, victim extraction). */
    std::uint64_t fillAccesses = 0;

    /** Cache hits / misses. */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /** Grouping statistics (zero for non-grouping schemes). */
    std::uint64_t groupedWrites = 0;
    std::uint64_t bypassedReads = 0;
    std::uint64_t prematureWritebacks = 0;
    std::uint64_t silentWritesDetected = 0;
    std::uint64_t silentGroupsElided = 0;
    double meanGroupSize = 0.0;

    /** Port contention. */
    std::uint64_t portStallCycles = 0;
    std::uint64_t portConflicts = 0;

    /** Mean read latency in cycles. */
    double meanReadLatency = 0.0;

    /** Dynamic energy of the measured window (J). */
    double dynamicEnergy = 0.0;

    /** Elapsed cycles. */
    std::uint64_t cycles = 0;

    /** Lower-level snapshots ([0] = L2, ...); empty for the classic
     *  single-level run, so historical results are unchanged. */
    std::vector<SchemeRunResult> levels;

    /** Hierarchy-wide dynamic energy: this level plus every level
     *  below (== dynamicEnergy for a single-level run). */
    double totalDynamicEnergy = 0.0;

    /** Field-wise (bit-exact) equality — the sweep engine's
     *  determinism guarantee is tested through this. */
    bool operator==(const SchemeRunResult &other) const = default;
};

/**
 * The plan-group predicate: true when @p a and @p b march in lockstep
 * on any stream, so one stage-1 plan serves both. That needs identical
 * top-level caches and identical lower levels — back-invalidations
 * perturb the top level's tag trajectory, so a hierarchy only matches
 * an identical hierarchy. MultiSchemeRunner groups its controllers by
 * it, and the sweep job builders never put two configurations that
 * fail it in one job (DESIGN.md §5).
 */
bool sharesPlan(const ControllerConfig &a, const ControllerConfig &b);

/**
 * Run one workload through several controllers in a single generation
 * pass (every controller sees the byte-identical stream). Each
 * controller gets its own functional memory.
 *
 * The generator is reset() first; after warm-up every controller's
 * statistics are reset; after the measurement window every controller
 * is drained so open groups are accounted for.
 */
class MultiSchemeRunner
{
  public:
    /**
     * @param configs One controller configuration per scheme under
     *                test.
     */
    explicit MultiSchemeRunner(std::vector<ControllerConfig> configs);

    /**
     * Run @p gen for the configured window.
     *
     * @param gen Workload (reset() is called first).
     * @param run Window lengths.
     * @return One result per configuration, in input order.
     */
    std::vector<SchemeRunResult> run(trace::AccessGenerator &gen,
                                     const RunConfig &run);

    /** Access a top-level controller (e.g. for invariant checks after
     *  run()); identical to stack(i).top(). */
    CacheController &controller(std::size_t i);

    /** Access the whole level stack of configuration @p i (per-level
     *  controllers, hierarchy peek/flush). */
    LevelStack &stack(std::size_t i);

    /** Number of controllers (= configurations = stacks). */
    std::size_t controllers() const { return _stacks.size(); }

    /**
     * Install an interval hook: during run()'s measurement window the
     * hook fires after every @p interval_accesses accesses (with the
     * 1-based access count), so callers can sample counter deltas
     * into a time series (obs::IntervalSnapshotter). Interval 0 or a
     * null hook disables sampling (the default — the measure loop
     * then pays one predictable branch per access). The hook runs on
     * the thread executing run() and must not touch the generator or
     * the controllers' request path.
     */
    void setIntervalHook(std::uint64_t interval_accesses,
                         std::function<void(std::uint64_t)> hook)
    {
        _intervalAccesses = interval_accesses;
        _intervalHook = std::move(hook);
    }

    /** Accesses pulled per chunk in run(). 4096 records = 96 KiB of
     *  scratch: large enough to amortise the per-chunk dispatch, small
     *  enough to stay cache-resident while every controller replays
     *  it. Each plan leader's chunk planner sizes its scratch to the
     *  first chunk it plans (at most this many accesses). */
    static constexpr std::size_t kChunkAccesses =
        CacheController::kReplayChunkAccesses;

  private:
    /**
     * Replay @p accesses from @p gen through every controller in
     * chunks. Chunk boundaries are clamped to the interval-hook grid
     * when @p measured, so the hook observes exactly the same
     * controller states as the historical per-access loop.
     */
    std::uint64_t replayWindow(trace::AccessGenerator &gen,
                               std::uint64_t accesses, bool measured);

    std::vector<ControllerConfig> _configs;
    std::vector<std::unique_ptr<mem::FunctionalMemory>> _memories;
    std::vector<std::unique_ptr<LevelStack>> _stacks;
    /** Copy buffer for generators that cannot lend a chunk
     *  (borrowChunk() returns null); allocated on first such chunk. */
    std::vector<trace::MemAccess> _chunk;

    /** Plan-sharing groups: _planLeader[i] is the first controller
     *  that sharesPlan() with controller i. Every controller sees
     *  every access, and tag evolution is scheme-independent, so
     *  same-shape tag states march in lockstep — the leader's stage-1
     *  plan is exact for the whole group and is computed once per
     *  chunk instead of once per controller. */
    std::vector<std::size_t> _planLeader;
    std::vector<const mem::ChunkPlan *> _leaderPlan;
    std::uint64_t _intervalAccesses = 0;
    std::function<void(std::uint64_t)> _intervalHook;
};

/** Snapshot of StreamAnalyzer results (Figures 3-5 quantities). */
struct StreamStats
{
    std::string workload;
    std::uint64_t instructions = 0;
    std::uint64_t accesses = 0;
    double readInstrFraction = 0.0;
    double writeInstrFraction = 0.0;
    double rrShare = 0.0;
    double rwShare = 0.0;
    double wwShare = 0.0;
    double wrShare = 0.0;
    double sameSetShare = 0.0;
    double silentWriteFraction = 0.0;
};

/**
 * Measure a workload's stream statistics over @p accesses accesses
 * against @p layout's set mapping.
 */
StreamStats analyzeStream(trace::AccessGenerator &gen,
                          const mem::AddrLayout &layout,
                          std::uint64_t accesses);

/** Extract a result snapshot from a controller. The snapshot's
 *  totalDynamicEnergy equals its own dynamicEnergy (single level). */
SchemeRunResult snapshotResult(const std::string &workload,
                               const CacheController &ctrl);

/** Extract a result snapshot from a whole stack: the top level's
 *  snapshot plus one `levels` entry per lower level and the
 *  hierarchy-wide totalDynamicEnergy. Identical to the controller
 *  overload for a depth-1 stack. */
SchemeRunResult snapshotResult(const std::string &workload,
                               const LevelStack &stack);

} // namespace c8t::core

#endif // C8T_CORE_SIMULATOR_HH

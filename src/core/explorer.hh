/**
 * @file
 * The design-space explorer (DESIGN.md §12): cross-product sweeps of
 * cache geometry × replacement × write scheme × supply voltage ×
 * workload, reduced to a Pareto frontier per workload.
 *
 * The ROADMAP north-star is a production-scale engine: 10^4..10^7
 * config-runs, where a config-run is one (workload, geometry, scheme,
 * Vdd) simulation. Each cell (one workload × geometry × replacement
 * × L2 size) is one operating-point sweep: the explorer builds a
 * VddSweepSpec for it, runs the jobs of appendOperatingPointJobs and
 * reduces them with reduceOperatingPoints — the same builder and
 * reducer runVddSweep uses (core/vdd_sweep.hh) — then summarises each
 * scheme's curve at its min-Vdd point. Three mechanisms make the scale
 * tractable:
 *
 *  * **Dedup.** The cross-product is expanded workload-major, so every
 *    geometry/scheme/Vdd combination of a workload is adjacent and the
 *    access stream is generated once per workload via the StreamCache
 *    signature (hit rate reported in the result). Monte-Carlo fault
 *    maps run on the sweep workers through the process-global
 *    FaultMapCache, once per (cell type, interleave degree,
 *    words-per-row, Vdd).
 *
 *  * **Sharding.** Cells (one cell = one workload × geometry ×
 *    replacement, i.e. runsPerCell() = schemes × grid config-runs) are
 *    grouped into fixed-size shards; each shard runs as one sweep on
 *    the explore's one ParallelSweeper (one pool for the whole
 *    explore) and is reduced to per-design summaries as soon as it
 *    finishes. Two shards are in flight: shard k+1's jobs are queued
 *    before shard k is reduced and checkpointed on the calling thread,
 *    so the workers never idle at a shard barrier. Raw per-point rows
 *    are never materialized beyond those two shards, so memory stays
 *    flat regardless of grid size. A failed explore abandons the
 *    shard in flight: its unclaimed jobs are dropped and its running
 *    ones finish before runExplore returns.
 *
 *  * **Resumable checkpointing.** With a checkpoint directory set,
 *    every completed shard writes its reduced summaries to
 *    `<dir>/shard-<index>.ckpt` (atomically: tmp file + rename). A
 *    restarted explore loads completed shards instead of re-running
 *    them; doubles round-trip through hexfloat, so a resumed explore
 *    produces the byte-identical result document
 *    (tests/explorer_test.cc). The checkpoint carries the full spec
 *    signature — resuming with a different spec or run window throws.
 *
 * Determinism: shard execution order (optionally shuffled) and worker
 * count cannot affect the result — summaries are reduced per cell from
 * bit-identical sweep results and canonically sorted at the end.
 */

#ifndef C8T_CORE_EXPLORER_HH
#define C8T_CORE_EXPLORER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "mem/replacement.hh"
#include "sram/cell.hh"
#include "sram/vmodel.hh"

namespace c8t::core
{

/** @p a * @p b, clamped to the uint64 maximum (the explore counts and
 *  the JobSpec admission counts must not wrap). */
inline std::uint64_t
satMul(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t r = 0;
    return __builtin_mul_overflow(a, b, &r) ? UINT64_MAX : r;
}

/** Cross-product specification of one explore. */
struct ExplorerSpec
{
    /** Axis defaults, also those of a JobSpec explore. */
    static inline const std::vector<std::uint64_t> kDefaultSizesKb = {
        16, 32, 64, 128};
    static inline const std::vector<std::uint32_t> kDefaultWays = {2, 4, 8};
    static inline const std::vector<std::uint32_t> kDefaultBlocks = {32, 64};
    static inline const std::vector<mem::ReplKind> kDefaultReplacements = {
        mem::ReplKind::Lru};

    /** Names the run in the heartbeat, trace spans and the document. */
    std::string label = "explore";

    /** SPEC profile names (trace::specProfile); must be non-empty. */
    std::vector<std::string> workloads;

    /** Cache sizes (KiB). */
    std::vector<std::uint64_t> sizesKb = kDefaultSizesKb;

    /** Associativities. */
    std::vector<std::uint32_t> ways = kDefaultWays;

    /** Block sizes (bytes). */
    std::vector<std::uint32_t> blocks = kDefaultBlocks;

    /** Replacement policies. */
    std::vector<mem::ReplKind> replacements = kDefaultReplacements;

    /** Write schemes (the cell type follows each scheme's traits). */
    std::vector<WriteScheme> schemes = voltageStorySchemes();

    /**
     * L2-capacity axis (KiB). Empty = classic single-level cells.
     * Non-empty switches every cell into a two-level hierarchy
     * (DESIGN.md §14): the L1 is pinned to a 6T direct-write cache at
     * nominal supply with the cell's geometry, while the scheme axis
     * and the Vdd grid apply to an inclusive write-back L2 of the
     * axis capacity (8 ways, the L1's block size, the cell's
     * replacement policy). Cells whose L2 would be smaller than the
     * L1 are skipped like any other invalid geometry.
     */
    std::vector<std::uint64_t> l2SizesKb;

    /**
     * Supply grid, strictly descending (same contract as VddSweepSpec).
     * Empty = nominal-only: one config-run per scheme with the voltage
     * model detached, min-Vdd reported as the nominal supply.
     */
    std::vector<double> vddGrid;

    /** Voltage model constants (used when vddGrid is non-empty). */
    sram::VddModelParams model;

    /** Post-ECC word failure rate above which a point is not
     *  operational. */
    double failureThreshold = 1e-3;

    /** Seed for the fault-map draws. */
    std::uint64_t runSeed = 1;

    /** Rows of the Monte-Carlo fault array. */
    std::uint32_t faultRows = 1024;

    /** Cells per shard (>= 1). Small shards checkpoint more often and
     *  show progress sooner; large shards amortize sweep setup. */
    std::size_t cellsPerShard = 8;

    /** Checkpoint directory; empty disables checkpointing. Created if
     *  missing. Must not be shared between different specs. */
    std::string checkpointDir;

    /**
     * Budget of shards *executed by this process* (resumed shards are
     * free); 0 = unlimited. When the budget runs out with work left,
     * the explore stops with completed=false — together with
     * checkpointDir this is the test/CI hook for kill/resume.
     */
    std::uint64_t maxShards = 0;

    /** Execute shards in a seeded-shuffled order (results are
     *  order-invariant; this exists to prove it). */
    bool shuffleShards = false;

    /** Shuffle seed. */
    std::uint64_t shuffleSeed = 1;

    /** @throws std::invalid_argument on an empty axis, an unknown
     *  workload, an ascending/non-positive grid or cellsPerShard 0. */
    void validate() const;

    /** Cells = workloads × sizes × ways × blocks × replacements
     *  (× L2 sizes when that axis is non-empty); saturating. */
    std::uint64_t cellCount() const;

    /** Config-runs per cell = schemes × max(1, grid points);
     *  saturating. */
    std::uint64_t runsPerCell() const;

    /** Total config-runs (includes cells later skipped as invalid
     *  geometries — skips are decided per cell, deterministically);
     *  saturating, so admission can bound it. */
    std::uint64_t configRunCount() const;

    /** Shards = ceil(cells / cellsPerShard). */
    std::uint64_t shardCount() const;

    /**
     * Deterministic signature of everything that affects the reduced
     * numbers (all axes, model constants, seed, fault rows, sharding
     * and the run window). Stored in every checkpoint and compared on
     * resume; doubles are serialized as hexfloat so the comparison is
     * exact.
     */
    std::string signature(const RunConfig &rc) const;
};

/** Reduced summary of one (cell, scheme) design point. */
struct DesignPointSummary
{
    /** Workload profile name. */
    std::string workload;

    /** Geometry. */
    std::uint64_t sizeBytes = 0;
    std::uint32_t ways = 0;
    std::uint32_t blockBytes = 0;

    /** L2 capacity behind this point (bytes; 0 = single-level). */
    std::uint64_t l2SizeBytes = 0;

    /** Replacement policy. */
    mem::ReplKind repl = mem::ReplKind::Lru;

    /** Scheme name (toString(WriteScheme)). */
    std::string scheme;

    /** Cell the scheme runs on (recomputed from scheme traits). */
    sram::CellType cell = sram::CellType::EightT;

    /** Whether any grid point was reachable-operational. Summary
     *  metrics below are taken at min-Vdd when true, at the highest
     *  grid point when false. */
    bool operational = false;

    /** Lowest reachable operational supply (V); the nominal supply
     *  for a nominal-only explore, 0 when nothing is operational. */
    double minVdd = 0.0;

    /** Total (dynamic + leakage) energy per demand request (J). */
    double energyPerAccess = 0.0;

    /** Energy-delay product per access (J*s). */
    double edpPerAccess = 0.0;

    /** Elapsed cycles per demand request. */
    double cyclesPerAccess = 0.0;

    /** misses / requests. */
    double missRate = 0.0;

    /** Set by the frontier reduction: not dominated on
     *  (energy, EDP, min-Vdd) among the workload's operational
     *  points. */
    bool onFrontier = false;
};

/** Result of one explore. */
struct ExploreResult
{
    /** Spec echo. */
    std::string label;
    std::vector<std::string> workloads;
    std::vector<double> vddGrid;
    double failureThreshold = 0.0;

    /** Cell/config-run accounting. cellsSkipped counts invalid
     *  geometries (e.g. more ways than blocks fit); configRunsTotal
     *  counts all cells (spec.configRunCount()), configRunsExecuted
     *  only the runs this process simulated. */
    std::uint64_t cellsTotal = 0;
    std::uint64_t cellsSkipped = 0;
    std::uint64_t configRunsTotal = 0;
    std::uint64_t configRunsExecuted = 0;

    /** Shard accounting. */
    std::uint64_t shardsTotal = 0;
    std::uint64_t shardsExecuted = 0;
    std::uint64_t shardsResumed = 0;

    /** False when the maxShards budget ran out with work left. */
    bool completed = false;

    /** Run telemetry (this process only; never serialized into the
     *  result document, which must be byte-identical across resumes). */
    double wallSeconds = 0.0;
    double configRunsPerSec = 0.0;
    double streamCacheHitRate = 0.0;

    /** All reduced design points, canonically sorted (workload in spec
     *  order, then size, ways, block, replacement, scheme). */
    std::vector<DesignPointSummary> summaries;

    /** The Pareto frontier (minimize energy, EDP, min-Vdd over
     *  operational points) of @p workload, in canonical order. */
    std::vector<const DesignPointSummary *>
    frontier(const std::string &workload) const;

    /**
     * Dump the schema-v5 kind:"explore" document: spec echo, cell
     * accounting and the per-workload frontiers. Deliberately excludes
     * all run telemetry (wall time, rates, resumed-shard counts) so an
     * interrupted-and-resumed explore dumps the byte-identical
     * document as an uninterrupted one. An incomplete explore writes a
     * stub without frontiers.
     */
    void dumpJson(std::ostream &os) const;
};

/**
 * Run the explore: expand the spec workload-major into cells, execute
 * (or resume) each shard on one ParallelSweeper with two shards in
 * flight, reduce to summaries and mark the per-workload Pareto
 * frontiers. A malformed checkpoint fails with an error naming its
 * file.
 *
 * @param spec    Explore configuration (validated).
 * @param rc      Warm-up/measure window per config-run.
 * @param workers Sweep worker threads; 0 = C8T_JOBS / hardware.
 */
ExploreResult runExplore(const ExplorerSpec &spec, const RunConfig &rc,
                         unsigned workers = 0);

} // namespace c8t::core

#endif // C8T_CORE_EXPLORER_HH

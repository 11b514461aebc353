/**
 * @file
 * Tests for the design-space explorer (core/explorer.hh).
 *
 * The contracts pinned here:
 *   - determinism: the result document is byte-identical for any
 *     worker count and any shard execution order;
 *   - resumability: an interrupted explore (shard budget) resumed
 *     from its checkpoint directory reproduces the byte-identical
 *     document of an uninterrupted run, and re-running over a
 *     complete directory re-executes nothing;
 *   - safety: checkpoints from a different spec are rejected;
 *   - dedup: the workload-major expansion keeps the stream-cache hit
 *     rate high;
 *   - one reducer: a single-cell explore summarises exactly what
 *     runVddSweep reports at min-Vdd, single-level and hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/vdd_sweep.hh"
#include "sram/vmodel.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

#include "sweep_reference.hh"

namespace
{

using namespace c8t;
using core::DesignPointSummary;
using core::ExploreResult;
using core::ExplorerSpec;
using core::RunConfig;
using core::WriteScheme;

RunConfig
testWindow()
{
    RunConfig rc;
    rc.warmupAccesses = 500;
    rc.measureAccesses = 3'000;
    return rc;
}

/** 8 cells (2 workloads × 2 sizes × 2 ways), 2 schemes × 2 grid
 *  points = 32 config-runs; 3 cells/shard makes the last shard
 *  ragged. */
ExplorerSpec
testSpec()
{
    ExplorerSpec spec;
    spec.label = "explorer_test";
    spec.workloads = {"gcc", "mcf"};
    spec.sizesKb = {16, 32};
    spec.ways = {2, 4};
    spec.blocks = {32};
    spec.replacements = {mem::ReplKind::Lru};
    spec.schemes = {WriteScheme::Rmw,
                    WriteScheme::WriteGroupingReadBypass};
    spec.vddGrid = {1.0, 0.8};
    spec.cellsPerShard = 3;
    spec.faultRows = 128;
    return spec;
}

std::string
dump(const ExploreResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

/** RAII temp checkpoint directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/c8t_explorer_test_XXXXXX";
        path = mkdtemp(tmpl);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Explorer, SpecValidation)
{
    EXPECT_NO_THROW(testSpec().validate());

    ExplorerSpec no_workloads = testSpec();
    no_workloads.workloads.clear();
    EXPECT_THROW(no_workloads.validate(), std::invalid_argument);

    ExplorerSpec unknown = testSpec();
    unknown.workloads.push_back("no_such_profile");
    EXPECT_THROW(unknown.validate(), std::invalid_argument);

    ExplorerSpec ascending = testSpec();
    ascending.vddGrid = {0.8, 1.0};
    EXPECT_THROW(ascending.validate(), std::invalid_argument);

    ExplorerSpec zero_shard = testSpec();
    zero_shard.cellsPerShard = 0;
    EXPECT_THROW(zero_shard.validate(), std::invalid_argument);

    EXPECT_EQ(testSpec().cellCount(), 8u);
    EXPECT_EQ(testSpec().runsPerCell(), 4u);
    EXPECT_EQ(testSpec().configRunCount(), 32u);
    EXPECT_EQ(testSpec().shardCount(), 3u);
}

TEST(Explorer, ResultIsWorkerCountAndShardOrderInvariant)
{
    const ExploreResult base = runExplore(testSpec(), testWindow(), 1);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.cellsTotal, 8u);
    EXPECT_EQ(base.cellsSkipped, 0u);
    EXPECT_EQ(base.shardsExecuted, 3u);
    EXPECT_EQ(base.configRunsExecuted, 32u);
    const std::string expect = dump(base);

    for (unsigned workers : {2u, 8u}) {
        const ExploreResult r =
            runExplore(testSpec(), testWindow(), workers);
        EXPECT_EQ(dump(r), expect) << workers << " workers";
    }

    ExplorerSpec shuffled = testSpec();
    shuffled.shuffleShards = true;
    shuffled.shuffleSeed = 99;
    const ExploreResult r = runExplore(shuffled, testWindow(), 2);
    EXPECT_EQ(dump(r), expect);
}

TEST(Explorer, InterruptAndResumeIsByteIdentical)
{
    const std::string expect =
        dump(runExplore(testSpec(), testWindow(), 2));

    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;

    // "Kill" after one shard: the budget runs out with work left.
    ExplorerSpec interrupted = spec;
    interrupted.maxShards = 1;
    {
        const ExploreResult r =
            runExplore(interrupted, testWindow(), 2);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.shardsExecuted, 1u);
        EXPECT_EQ(r.shardsResumed, 0u);
        // The incomplete document is a stub without frontiers.
        EXPECT_NE(dump(r).find("\"completed\":false"),
                  std::string::npos);
        EXPECT_NE(dump(r).find("\"frontiers\":[]"), std::string::npos);
    }

    // Resume: the completed shard is loaded, the rest executed; the
    // document is byte-identical to the uninterrupted run's. Resume
    // under a different worker count and a shuffled order to stack
    // the invariances.
    ExplorerSpec resumed = spec;
    resumed.shuffleShards = true;
    resumed.shuffleSeed = 7;
    {
        const ExploreResult r = runExplore(resumed, testWindow(), 1);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 1u);
        EXPECT_EQ(r.shardsExecuted, 2u);
        EXPECT_EQ(dump(r), expect);
    }

    // Re-run over the now-complete directory: nothing executes.
    {
        const ExploreResult r = runExplore(spec, testWindow(), 2);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 3u);
        EXPECT_EQ(r.shardsExecuted, 0u);
        EXPECT_EQ(r.configRunsExecuted, 0u);
        EXPECT_EQ(dump(r), expect);
    }
}

TEST(Explorer, CheckpointFromDifferentSpecIsRejected)
{
    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;
    { runExplore(spec, testWindow(), 2); }

    // A different grid changes the signature.
    ExplorerSpec other = spec;
    other.vddGrid = {1.0, 0.9};
    EXPECT_THROW(runExplore(other, testWindow(), 2),
                 std::invalid_argument);

    // So does a different run window.
    RunConfig longer = testWindow();
    longer.measureAccesses *= 2;
    EXPECT_THROW(runExplore(spec, longer, 2), std::invalid_argument);
}

TEST(Explorer, StreamCacheDedupKeepsHitRateHigh)
{
    // 4 geometries × 2 grid points per workload = 8 acquires of the
    // same stream: 1 miss + 7 hits → 87.5 % (the acceptance bar is
    // > 50 % on a dedup-friendly grid).
    const ExploreResult r = runExplore(testSpec(), testWindow(), 1);
    EXPECT_GT(r.streamCacheHitRate, 0.5);
}

TEST(Explorer, InvalidGeometriesAreSkippedDeterministically)
{
    ExplorerSpec spec = testSpec();
    // A 16 KiB cache cannot be 512-way × 32 B (sets would vanish);
    // those cells must be skipped, not fail the explore.
    spec.ways = {2, 512};
    const ExploreResult a = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.cellsSkipped, 0u);
    EXPECT_LT(a.cellsSkipped, a.cellsTotal);
    EXPECT_EQ(a.summaries.size(),
              (a.cellsTotal - a.cellsSkipped) * spec.schemes.size());
    const ExploreResult b = runExplore(spec, testWindow(), 1);
    EXPECT_EQ(dump(a), dump(b));
}

TEST(Explorer, NominalOnlyGridRunsDetached)
{
    ExplorerSpec spec = testSpec();
    spec.vddGrid.clear(); // nominal-only
    const ExploreResult r = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.configRunsExecuted, 16u); // one grid point, 2 schemes
    for (const DesignPointSummary &p : r.summaries) {
        EXPECT_TRUE(p.operational);
        EXPECT_EQ(p.minVdd, spec.model.nominalVdd);
        EXPECT_GT(p.energyPerAccess, 0.0);
        EXPECT_GT(p.cyclesPerAccess, 0.0);
    }
}

TEST(Explorer, FrontierIsTheNonDominatedSet)
{
    const ExploreResult r = runExplore(testSpec(), testWindow(), 2);
    ASSERT_TRUE(r.completed);

    for (const std::string &w : r.workloads) {
        const auto front = r.frontier(w);
        ASSERT_FALSE(front.empty()) << w;

        // Every operational point off the frontier is dominated by
        // some frontier point; no frontier point dominates another.
        for (const DesignPointSummary &p : r.summaries) {
            if (p.workload != w || !p.operational)
                continue;
            bool dominated = false;
            for (const DesignPointSummary *q : front) {
                if (q == &p)
                    continue;
                const bool no_worse =
                    q->energyPerAccess <= p.energyPerAccess &&
                    q->edpPerAccess <= p.edpPerAccess &&
                    q->minVdd <= p.minVdd;
                const bool better =
                    q->energyPerAccess < p.energyPerAccess ||
                    q->edpPerAccess < p.edpPerAccess ||
                    q->minVdd < p.minVdd;
                if (no_worse && better) {
                    dominated = true;
                    break;
                }
            }
            EXPECT_EQ(p.onFrontier, !dominated)
                << w << " " << p.sizeBytes << "/" << p.ways << " "
                << p.scheme;
        }

        // The 8T scheme unlocks a lower min-Vdd than anything the
        // explorer would report for a failing configuration: frontier
        // points are all operational.
        for (const DesignPointSummary *q : front)
            EXPECT_TRUE(q->operational);
    }
}

TEST(Explorer, SingleCellMatchesRunVddSweepAtMinVdd)
{
    // One cell (gcc, 64 KB/4w/32 B/LRU, default grid) through both
    // drivers, single-level and with a 256 KB L2: every summary must
    // be bit-equal to the vdd sweep's curve at its min-Vdd point.
    for (const bool hierarchy : {false, true}) {
        ExplorerSpec espec;
        espec.label = "explorer_test_cross";
        espec.workloads = {"gcc"};
        espec.sizesKb = {64};
        espec.ways = {4};
        espec.blocks = {32};
        espec.vddGrid = sram::VddModel::defaultGrid();
        if (hierarchy)
            espec.l2SizesKb = {256};
        const ExploreResult er = runExplore(espec, testWindow(), 2);
        ASSERT_TRUE(er.completed);
        ASSERT_EQ(er.summaries.size(), espec.schemes.size());

        core::VddSweepSpec vspec;
        vspec.cache = mem::CacheConfig{64 * 1024, 4, 32};
        vspec.schemes = espec.schemes;
        if (hierarchy) {
            core::LevelConfig l2;
            l2.cache = mem::CacheConfig{256 * 1024, 8, 32};
            vspec.lowerLevels = {l2};
        }
        vspec.makeGenerator = [] {
            return std::make_unique<trace::MarkovStream>(
                trace::specProfile("gcc"));
        };
        vspec.streamKey = trace::streamSignature(trace::specProfile("gcc"));
        const core::VddSweepResult vr =
            core::runVddSweep(vspec, testWindow(), 2);

        for (const DesignPointSummary &p : er.summaries) {
            SCOPED_TRACE(p.scheme + (hierarchy ? " +l2" : ""));
            const core::VddCurve *c =
                vr.curve(core::parseWriteScheme(p.scheme));
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(p.minVdd, c->minVdd);
            EXPECT_EQ(p.operational, c->minVdd > 0.0);
            const core::VddPointResult *at = nullptr;
            for (const core::VddPointResult &pt : c->points) {
                if (pt.vdd == c->minVdd)
                    at = &pt;
            }
            ASSERT_NE(at, nullptr);
            EXPECT_EQ(p.energyPerAccess, at->energyPerAccess);
            EXPECT_EQ(p.edpPerAccess, at->edpPerAccess);
            EXPECT_EQ(p.cyclesPerAccess, at->cyclesPerAccess);
        }
    }
}

/** Run one cell (gcc, 16 KB/4w L1, optionally over a 32 KB/8w L2) on
 *  @p grid through the explorer and require every summary to equal a
 *  reference that runs each (grid point, scheme) config through a
 *  runner of its own. */
void
expectCellMatchesPerConfigReference(const std::vector<double> &grid,
                                    bool hierarchy)
{
    ExplorerSpec espec;
    espec.label = "explorer_test_ref";
    espec.workloads = {"gcc"};
    espec.sizesKb = {16};
    espec.ways = {4};
    espec.blocks = {32};
    if (hierarchy)
        espec.l2SizesKb = {32};
    espec.schemes = {WriteScheme::Rmw, WriteScheme::WriteGrouping};
    espec.vddGrid = grid;
    espec.faultRows = 128;

    core::VddSweepSpec vspec;
    vspec.grid = espec.vddGrid;
    vspec.faultRows = espec.faultRows;
    vspec.cache = mem::CacheConfig{16 * 1024, 4, 32};
    vspec.schemes = espec.schemes;
    if (hierarchy) {
        core::LevelConfig l2;
        l2.cache = mem::CacheConfig{32 * 1024, 8, 32};
        vspec.lowerLevels = {l2};
    }
    vspec.makeGenerator = [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    const std::vector<core::VddCurve> want =
        core::referenceCurves(vspec, testWindow());

    for (const unsigned workers : {1u, 4u}) {
        const ExploreResult er = runExplore(espec, testWindow(), workers);
        ASSERT_TRUE(er.completed);
        ASSERT_EQ(er.summaries.size(), want.size());
        for (const DesignPointSummary &p : er.summaries) {
            SCOPED_TRACE(p.scheme + " at " + std::to_string(workers) +
                         " workers");
            const core::VddCurve *c = nullptr;
            for (const core::VddCurve &curve : want) {
                if (curve.scheme == p.scheme)
                    c = &curve;
            }
            ASSERT_NE(c, nullptr);
            const core::VddPointResult *at = core::minVddPoint(*c);
            const core::VddPointResult &pt = at ? *at : c->points.front();
            EXPECT_EQ(p.l2SizeBytes, hierarchy ? 32u * 1024 : 0u);
            EXPECT_EQ(p.minVdd, c->minVdd);
            EXPECT_EQ(p.operational, at != nullptr);
            EXPECT_EQ(p.energyPerAccess, pt.energyPerAccess);
            EXPECT_EQ(p.edpPerAccess, pt.edpPerAccess);
            EXPECT_EQ(p.cyclesPerAccess, pt.cyclesPerAccess);
            EXPECT_EQ(p.missRate,
                      static_cast<double>(pt.run.misses) /
                          static_cast<double>(pt.run.requests));
        }
    }
}

TEST(Explorer, HierarchyCellMatchesPerConfigReference)
{
    // Each (grid point, scheme) of a two-level cell is a job of its
    // own: no two of these supplies resolve alike.
    expectCellMatchesPerConfigReference({1.0, 0.8, 0.6}, true);
}

TEST(Explorer, SharedTimingClassCellMatchesPerConfigReference)
{
    // 0.9 V and 0.8 V resolve to the same latency cycles, so the
    // cell's jobs replay them once and price each point on its own.
    for (const bool hierarchy : {false, true}) {
        SCOPED_TRACE(hierarchy ? "hierarchy" : "single level");
        expectCellMatchesPerConfigReference({1.0, 0.9, 0.8}, hierarchy);
    }
}

} // namespace

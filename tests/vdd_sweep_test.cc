/**
 * @file
 * Tests for the voltage sweep driver (core/vdd_sweep.hh) and the
 * controller's operating-point wiring (DESIGN.md §10).
 *
 * The two contracts pinned here:
 *   - nominal identity: a voltage model attached at nominal Vdd is
 *     byte-identical to no model at all — stats dump, JSON document
 *     and event totals;
 *   - determinism: the sweep result (including the Monte-Carlo fault
 *     maps) is bit-identical for any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/controller.hh"
#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "core/vdd_sweep.hh"
#include "core/worker_pool.hh"
#include "mem/functional_mem.hh"
#include "obs/event_ring.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

#include "sweep_reference.hh"

namespace
{

using namespace c8t;
using core::CacheController;
using core::ControllerConfig;
using core::RunConfig;
using core::VddSweepResult;
using core::VddSweepSpec;
using core::WriteScheme;

std::vector<trace::MemAccess>
gccStream(std::uint64_t n)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> out(n);
    for (auto &a : out)
        gen.next(a);
    return out;
}

VddSweepSpec
testSpec()
{
    VddSweepSpec spec;
    spec.makeGenerator = [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    spec.streamKey = "vdd_sweep_test:gcc";
    return spec;
}

// ---------------------------------------------------------------------
// Satellite: nominal-Vdd identity. A model attached at nominal is the
// detached simulator, byte for byte.
// ---------------------------------------------------------------------

TEST(VddNominalIdentity, AttachedAtNominalIsByteIdentical)
{
    const auto stream = gccStream(40'000);

    for (WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::Rmw,
          WriteScheme::WriteGroupingReadBypass}) {
        ControllerConfig detached;
        detached.scheme = scheme;
        ASSERT_EQ(detached.vdd, 0.0);

        ControllerConfig attached = detached;
        attached.vdd = attached.vmodel.nominalVdd; // explicit nominal

        mem::FunctionalMemory mem_a, mem_b;
        CacheController a(detached, mem_a);
        CacheController b(attached, mem_b);
        EXPECT_FALSE(a.vddActive());
        EXPECT_FALSE(b.vddActive());

        obs::EventRing ring_a(512), ring_b(512);
        a.attachEventRing(&ring_a);
        b.attachEventRing(&ring_b);
        for (const auto &acc : stream) {
            a.access(acc);
            b.access(acc);
        }

        // Human-readable dump.
        std::ostringstream dump_a, dump_b;
        a.dumpStats(dump_a);
        b.dumpStats(dump_b);
        EXPECT_EQ(dump_a.str(), dump_b.str()) << toString(scheme);

        // JSON document, including the absence of vdd.* gauges.
        stats::Registry reg_a, reg_b;
        a.registerStats(reg_a);
        b.registerStats(reg_b);
        std::ostringstream json_a, json_b;
        reg_a.dumpJson(json_a);
        reg_b.dumpJson(json_b);
        EXPECT_EQ(json_a.str(), json_b.str()) << toString(scheme);
        EXPECT_EQ(json_b.str().find("vdd."), std::string::npos);

        // Event totals.
        EXPECT_EQ(ring_a.typeCounts(), ring_b.typeCounts())
            << toString(scheme);
        EXPECT_EQ(a.cycle(), b.cycle()) << toString(scheme);
        EXPECT_EQ(a.dynamicEnergy(), b.dynamicEnergy())
            << toString(scheme);
    }
}

TEST(VddNominalIdentity, SubNominalVddActuallyChangesTheRun)
{
    const auto stream = gccStream(20'000);

    ControllerConfig nominal;
    nominal.scheme = WriteScheme::Rmw;
    ControllerConfig low = nominal;
    low.vdd = 0.7;

    mem::FunctionalMemory mem_a, mem_b;
    CacheController a(nominal, mem_a);
    CacheController b(low, mem_b);
    EXPECT_FALSE(a.vddActive());
    EXPECT_TRUE(b.vddActive());
    EXPECT_DOUBLE_EQ(b.vddPoint().vdd, 0.7);

    for (const auto &acc : stream) {
        a.access(acc);
        b.access(acc);
    }

    // CV^2 cuts dynamic energy, the alpha-power delay adds cycles;
    // functional behaviour (hits, misses, data) is untouched.
    EXPECT_LT(b.dynamicEnergy(), a.dynamicEnergy() * 0.55);
    EXPECT_GT(b.cycle(), a.cycle());
    EXPECT_EQ(a.requests(), b.requests());
    EXPECT_EQ(a.demandAccesses(), b.demandAccesses());
}

// ---------------------------------------------------------------------
// The sweep driver.
// ---------------------------------------------------------------------

TEST(VddSweep, EndToEndCurvesMatchThePaperStory)
{
    const VddSweepSpec spec = testSpec();
    const RunConfig rc{2'000, 20'000};
    const VddSweepResult result = core::runVddSweep(spec, rc);

    EXPECT_EQ(result.workload, "gcc");
    ASSERT_EQ(result.curves.size(), spec.schemes.size());
    ASSERT_GE(result.grid.size(), 8u);
    for (const core::VddCurve &c : result.curves)
        ASSERT_EQ(c.points.size(), result.grid.size());

    const core::VddCurve *sixt = result.curve(WriteScheme::SixTDirect);
    const core::VddCurve *rmw = result.curve(WriteScheme::Rmw);
    const core::VddCurve *wg = result.curve(WriteScheme::WriteGrouping);
    const core::VddCurve *wgrb =
        result.curve(WriteScheme::WriteGroupingReadBypass);
    ASSERT_NE(sixt, nullptr);
    ASSERT_NE(rmw, nullptr);
    ASSERT_NE(wg, nullptr);
    ASSERT_NE(wgrb, nullptr);
    EXPECT_EQ(result.curve(WriteScheme::LocalRmw), nullptr);

    // The headline: 6T runs on the 6T cell and stops scaling first;
    // every 8T scheme shares the same (cell, Vdd) fault maps, so all
    // three reach the same, strictly lower min-Vdd.
    EXPECT_EQ(sixt->cell, sram::CellType::SixT);
    EXPECT_EQ(rmw->cell, sram::CellType::EightT);
    EXPECT_GT(sixt->minVdd, 0.0);
    EXPECT_LT(rmw->minVdd, sixt->minVdd);
    EXPECT_DOUBLE_EQ(wg->minVdd, rmw->minVdd);
    EXPECT_DOUBLE_EQ(wgrb->minVdd, rmw->minVdd);

    for (std::size_t gi = 0; gi < result.grid.size(); ++gi) {
        // Write grouping recoups the RMW tax at every operating point.
        EXPECT_LT(wgrb->points[gi].energyPerAccess,
                  rmw->points[gi].energyPerAccess)
            << result.grid[gi];
        EXPECT_LT(wg->points[gi].energyPerAccess,
                  rmw->points[gi].energyPerAccess)
            << result.grid[gi];
        // Identical fault maps for every 8T scheme at each point.
        EXPECT_EQ(rmw->points[gi].faults.failedWords(),
                  wgrb->points[gi].faults.failedWords())
            << result.grid[gi];
        // Per-point bookkeeping is coherent.
        const core::VddPointResult &p = wgrb->points[gi];
        EXPECT_DOUBLE_EQ(p.energyPerAccess,
                         p.dynamicEnergyPerAccess +
                             p.leakageEnergyPerAccess);
        EXPECT_GT(p.cyclesPerAccess, 0.0);
        EXPECT_GT(p.edpPerAccess, 0.0);
    }

    // Nominal heads every curve and is always operational.
    EXPECT_TRUE(sixt->points.front().operational);
    EXPECT_TRUE(wgrb->points.front().operational);
    EXPECT_EQ(wgrb->points.front().point.energyScale, 1.0);
}

TEST(VddSweep, ResultIsIdenticalForAnyWorkerCount)
{
    VddSweepSpec spec = testSpec();
    spec.grid = {1.0, 0.85, 0.7, 0.6}; // keep the matrix small
    const RunConfig rc{1'000, 10'000};

    // Every run evaluates its campaigns itself: one per distinct
    // (cell, interleave degree, Vdd), on the sweep workers.
    std::set<std::pair<bool, bool>> shapes;
    for (const WriteScheme s : spec.schemes) {
        const core::SchemeTraits t = core::schemeTraits(s);
        shapes.emplace(t.requiresEightT, t.requiresNonInterleaved);
    }
    const std::uint64_t keys = shapes.size() * spec.grid.size();

    std::vector<std::string> dumps;
    const auto sweep = [&](unsigned workers) {
        core::globalFaultMapCache().clear();
        const std::uint64_t misses0 =
            core::globalFaultMapCache().stats().misses;
        const VddSweepResult r = core::runVddSweep(spec, rc, workers);
        EXPECT_EQ(core::globalFaultMapCache().stats().misses - misses0,
                  keys)
            << workers << " workers";
        std::ostringstream os;
        r.dumpJson(os);
        dumps.push_back(os.str());
    };
    for (const unsigned workers : {1u, 2u, 4u, 8u})
        sweep(workers);
    {
        // The daemon path: jobs run on an installed shared pool.
        core::SweepPool pool(4);
        core::setGlobalSweepPool(&pool);
        sweep(4);
        core::setGlobalSweepPool(nullptr);
    }
    ASSERT_EQ(dumps.size(), 5u);
    for (std::size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "run " << i;
}

TEST(VddSweep, CallsTheFactoryOnlyInsideItsJobs)
{
    // With no stream key every job builds its own generator, and the
    // result takes the workload name from its first run, so the
    // factory runs exactly once per job: 7 on the default grid, one
    // per timing class.
    VddSweepSpec spec = testSpec();
    spec.streamKey.clear();
    std::atomic<int> calls{0};
    spec.makeGenerator = [&calls] {
        ++calls;
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    core::VddFaultTable faults;
    std::vector<core::SweepJob> jobs;
    ASSERT_EQ(core::appendOperatingPointJobs(spec, faults, jobs), 7u);

    const VddSweepResult r = core::runVddSweep(spec, RunConfig{100, 1'000}, 2);
    EXPECT_EQ(calls.load(), 7);
    EXPECT_EQ(r.workload, "gcc");
}

TEST(VddSweep, DumpJsonIsVersionedAndWellFormed)
{
    VddSweepSpec spec = testSpec();
    spec.grid = {1.0, 0.7};
    const VddSweepResult r =
        core::runVddSweep(spec, RunConfig{500, 5'000});

    std::ostringstream os;
    r.dumpJson(os);
    const std::string out = os.str();
    EXPECT_EQ(out.find("{\"schema_version\":5,\"kind\":\"vdd_sweep\""),
              0u);
    for (const char *key :
         {"\"workload\":\"gcc\"", "\"failure_threshold\"", "\"grid\"",
          "\"curves\"", "\"scheme\":\"6T\"", "\"scheme\":\"WG+RB\"",
          "\"cell\":\"8T\"", "\"min_vdd\"", "\"energy_per_access\"",
          "\"post_ecc_failure_rate\"", "\"operational\"",
          "\"delay_factor\""}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    EXPECT_EQ(out.find(",}"), std::string::npos);
    EXPECT_EQ(out.find(",]"), std::string::npos);
}

TEST(VddSweep, SpecValidationRejectsBrokenInput)
{
    const RunConfig rc{100, 1'000};

    VddSweepSpec no_factory = testSpec();
    no_factory.makeGenerator = nullptr;
    EXPECT_THROW(core::runVddSweep(no_factory, rc),
                 std::invalid_argument);

    VddSweepSpec empty_grid = testSpec();
    empty_grid.grid.clear();
    EXPECT_THROW(core::runVddSweep(empty_grid, rc),
                 std::invalid_argument);

    VddSweepSpec ascending = testSpec();
    ascending.grid = {0.5, 0.7, 1.0};
    EXPECT_THROW(core::runVddSweep(ascending, rc),
                 std::invalid_argument);

    VddSweepSpec no_schemes = testSpec();
    no_schemes.schemes.clear();
    EXPECT_THROW(core::runVddSweep(no_schemes, rc),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Job layout: no sweep job mixes plan groups, and the layout never
// changes a result.
// ---------------------------------------------------------------------

/** A small two-level spec: a 16 KB L1 over a 32 KB / 4-way L2, so the
 *  L2 evicts and back-invalidates within a short window. */
VddSweepSpec
hierarchySpec()
{
    VddSweepSpec spec = testSpec();
    spec.cache = mem::CacheConfig{16 * 1024, 4, 32};
    core::LevelConfig l2;
    l2.cache = mem::CacheConfig{32 * 1024, 4, 32};
    spec.lowerLevels = {l2};
    spec.grid = {1.0, 0.8, 0.6};
    spec.schemes = {WriteScheme::Rmw, WriteScheme::WriteGrouping};
    return spec;
}

TEST(VddSweepJobs, NoJobMixesPlanGroups)
{
    const auto expect_layout = [](const VddSweepSpec &spec,
                                  std::size_t jobs_per_point) {
        core::VddFaultTable faults;
        std::vector<core::SweepJob> jobs;
        const std::size_t appended =
            core::appendOperatingPointJobs(spec, faults, jobs);
        EXPECT_EQ(jobs.size(), spec.grid.size() * jobs_per_point);
        EXPECT_EQ(appended, jobs.size());
        std::size_t configs = 0;
        for (const core::SweepJob &job : jobs) {
            configs += job.configs.size();
            for (const ControllerConfig &a : job.configs) {
                for (const ControllerConfig &b : job.configs)
                    EXPECT_TRUE(core::sharesPlan(a, b));
            }
        }
        EXPECT_EQ(configs, spec.grid.size() * spec.schemes.size());
        ASSERT_EQ(faults.size(), spec.grid.size());
    };

    // Single level: every scheme shares the cache, so one job per
    // grid point, as the figure sweeps and the explorer always had.
    VddSweepSpec single = testSpec();
    single.grid = {1.0, 0.8, 0.6};
    expect_layout(single, 1);

    // Hierarchy: the schemes' L2s differ, so one job per (grid point,
    // scheme).
    const VddSweepSpec hier = hierarchySpec();
    expect_layout(hier, hier.schemes.size());
    VddSweepSpec four = hierarchySpec();
    four.schemes = VddSweepSpec{}.schemes;
    expect_layout(four, four.schemes.size());
}

/** The configuration of (grid point, scheme) in @p spec's hierarchy
 *  mode, spelled out: a pinned 6T L1 at nominal, the scheme and the
 *  supply on the L2. */
ControllerConfig
hierarchyPointConfig(const VddSweepSpec &spec, WriteScheme s, double vdd)
{
    ControllerConfig cfg;
    cfg.cache = spec.cache;
    cfg.vmodel = spec.model;
    cfg.scheme = WriteScheme::SixTDirect;
    cfg.lowerLevels = spec.lowerLevels;
    cfg.lowerLevels.front().scheme = s;
    cfg.lowerLevels.front().vdd = vdd;
    return cfg;
}

TEST(VddSweepJobs, HierarchyLayoutNeverChangesAResult)
{
    const VddSweepSpec spec = hierarchySpec();
    const RunConfig rc{1'000, 8'000};
    const auto run_alone = [&](std::vector<ControllerConfig> configs) {
        core::MultiSchemeRunner runner(std::move(configs));
        const auto gen = spec.makeGenerator();
        return runner.run(*gen, rc);
    };

    // Reference: every (grid point, scheme) config through a runner
    // of its own. The same configs sharing one runner per grid point
    // give the same runs: the layout never changes a result.
    std::vector<std::vector<core::SchemeRunResult>> want(spec.grid.size());
    for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
        std::vector<ControllerConfig> point;
        for (const WriteScheme s : spec.schemes) {
            point.push_back(hierarchyPointConfig(spec, s, spec.grid[gi]));
            want[gi].push_back(run_alone({point.back()}).front());
        }
        EXPECT_EQ(run_alone(point), want[gi]) << "grid point " << gi;
    }

    // The reference document: each (grid point, scheme) config run
    // through its own runner, then reduced.
    VddSweepResult ref;
    ref.workload = spec.makeGenerator()->name();
    ref.failureThreshold = spec.failureThreshold;
    ref.grid = spec.grid;
    ref.hierarchy = true;
    ref.curves = core::referenceCurves(spec, rc);
    std::ostringstream want_doc;
    ref.dumpJson(want_doc);

    for (const unsigned workers : {1u, 4u}) {
        const VddSweepResult r = core::runVddSweep(spec, rc, workers);
        std::ostringstream doc;
        r.dumpJson(doc);
        EXPECT_EQ(doc.str(), want_doc.str()) << workers << " workers";
        for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
            for (std::size_t gi = 0; gi < spec.grid.size(); ++gi)
                EXPECT_EQ(r.curves[si].points[gi].run, want[gi][si])
                    << workers << " workers, scheme " << si << ", point "
                    << gi;
        }
    }
}

TEST(VddSweepJobs, DefaultGridReplaysEachTimingClassOnce)
{
    // The default grid's 11 supplies resolve to 7 latency triples
    // (0.95-0.80 V alike, 0.75-0.70 V alike), so a sweep runs one job
    // per (timing class, plan group): 7 single-level, 7 x 4 in
    // hierarchy mode. Pricing each point of a class from the class's
    // one replay gives exactly the point's own lone run.
    const RunConfig rc{500, 3'000};
    VddSweepSpec single = testSpec();
    single.cache = mem::CacheConfig{16 * 1024, 4, 32};
    VddSweepSpec hier = hierarchySpec();
    hier.grid = VddSweepSpec{}.grid;
    hier.schemes = VddSweepSpec{}.schemes;
    ASSERT_EQ(single.grid.size(), 11u);

    for (const VddSweepSpec &spec : {single, hier}) {
        const bool hierarchy = !spec.lowerLevels.empty();
        SCOPED_TRACE(hierarchy ? "hierarchy" : "single level");
        core::VddFaultTable faults;
        std::vector<core::SweepJob> jobs;
        const std::size_t appended =
            core::appendOperatingPointJobs(spec, faults, jobs);
        EXPECT_EQ(jobs.size(), 7 * (hierarchy ? spec.schemes.size() : 1));
        EXPECT_EQ(appended, jobs.size());
        std::size_t configs = 0;
        for (const core::SweepJob &job : jobs) {
            configs += job.configs.size();
            for (const ControllerConfig &a : job.configs) {
                for (const ControllerConfig &b : job.configs)
                    EXPECT_TRUE(core::sharesPlan(a, b) ||
                                core::sharesReplay(a, b));
            }
        }
        EXPECT_EQ(configs, spec.grid.size() * spec.schemes.size());

        const VddSweepResult r = core::runVddSweep(spec, rc, 2);
        for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
            for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
                ControllerConfig cfg;
                if (hierarchy) {
                    cfg = hierarchyPointConfig(spec, spec.schemes[si],
                                               spec.grid[gi]);
                } else {
                    cfg.cache = spec.cache;
                    cfg.vmodel = spec.model;
                    cfg.scheme = spec.schemes[si];
                    cfg.vdd = spec.grid[gi];
                }
                core::MultiSchemeRunner alone({cfg});
                const auto gen = spec.makeGenerator();
                EXPECT_EQ(r.curves[si].points[gi].run,
                          alone.run(*gen, rc).front())
                    << "scheme " << si << ", point " << gi;
            }
        }
    }
}

} // anonymous namespace

/**
 * @file
 * Unit tests for the c8tsim option parser and workload factory.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "app/options.hh"
#include "core/sweep.hh"
#include "sram/vmodel.hh"

namespace
{

using namespace c8t::app;
using c8t::core::WriteScheme;
namespace core = c8t::core;
namespace mem = c8t::mem;

SimOptions
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> v;
    for (const char *a : args)
        v.emplace_back(a);
    return parseOptions(v);
}

TEST(Options, Defaults)
{
    const SimOptions o = parse({});
    EXPECT_EQ(o.workload, "spec:gcc");
    EXPECT_EQ(o.accesses, 1'000'000u);
    EXPECT_EQ(o.effectiveWarmup(), 100'000u);
    EXPECT_EQ(o.cache.sizeBytes, 64u * 1024);
    ASSERT_EQ(o.schemes.size(), 2u);
    EXPECT_EQ(o.schemes[0], WriteScheme::Rmw);
    EXPECT_EQ(o.schemes[1], WriteScheme::WriteGroupingReadBypass);
    EXPECT_TRUE(o.silentDetection);
    EXPECT_FALSE(o.help);
}

TEST(Options, CacheShape)
{
    const SimOptions o =
        parse({"--size", "32", "--ways", "8", "--block", "64",
               "--repl", "plru"});
    EXPECT_EQ(o.cache.sizeBytes, 32u * 1024);
    EXPECT_EQ(o.cache.ways, 8u);
    EXPECT_EQ(o.cache.blockBytes, 64u);
    EXPECT_EQ(o.cache.replacement, c8t::mem::ReplKind::TreePlru);
}

TEST(Options, SchemeSelection)
{
    const SimOptions o =
        parse({"--scheme", "WG", "--scheme", "RMW"});
    ASSERT_EQ(o.schemes.size(), 2u);
    EXPECT_EQ(o.schemes[0], WriteScheme::WriteGrouping);
    EXPECT_EQ(o.schemes[1], WriteScheme::Rmw);
}

TEST(Options, AllSchemes)
{
    const SimOptions o = parse({"--all"});
    EXPECT_EQ(o.schemes.size(), 6u);
}

TEST(Options, WarmupOverride)
{
    const SimOptions o =
        parse({"--accesses", "5000", "--warmup", "123"});
    EXPECT_EQ(o.accesses, 5000u);
    EXPECT_EQ(o.effectiveWarmup(), 123u);
}

TEST(Options, Toggles)
{
    const SimOptions o = parse({"--no-silent-detection", "--stats",
                                "--csv", "--buffer-entries", "4",
                                "--l2", "512"});
    EXPECT_FALSE(o.silentDetection);
    EXPECT_TRUE(o.dumpStats);
    EXPECT_TRUE(o.csv);
    EXPECT_EQ(o.bufferEntries, 4u);
    EXPECT_EQ(o.l2SizeKb, 512u);
}

TEST(Options, ObservabilityFlags)
{
    const SimOptions d = parse({});
    EXPECT_TRUE(d.statsJsonFile.empty());
    EXPECT_TRUE(d.chromeTraceFile.empty());
    EXPECT_EQ(d.traceEvents, 0u);
    EXPECT_TRUE(d.metricsOutFile.empty());
    EXPECT_TRUE(d.intervalStatsFile.empty());
    EXPECT_EQ(d.intervalAccesses, 100'000u);
    EXPECT_FALSE(d.progress);

    const SimOptions o = parse(
        {"--stats-json", "out.json", "--chrome-trace", "trace.json",
         "--trace-events", "4096", "--metrics-out", "metrics.prom",
         "--interval-stats", "ticks.jsonl",
         "--interval", "2500", "--progress"});
    EXPECT_EQ(o.statsJsonFile, "out.json");
    EXPECT_EQ(o.chromeTraceFile, "trace.json");
    EXPECT_EQ(o.traceEvents, 4096u);
    EXPECT_EQ(o.metricsOutFile, "metrics.prom");
    EXPECT_EQ(o.intervalStatsFile, "ticks.jsonl");
    EXPECT_EQ(o.intervalAccesses, 2500u);
    EXPECT_TRUE(o.progress);

    EXPECT_THROW(parse({"--interval", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--stats-json"}), std::invalid_argument);
    EXPECT_THROW(parse({"--metrics-out"}), std::invalid_argument);
}

TEST(Options, L2DisabledByDefault)
{
    EXPECT_EQ(parse({}).l2SizeKb, 0u);
    EXPECT_TRUE(toJobSpec(parse({})).levels.empty());
}

TEST(Options, HierarchyFlags)
{
    const SimOptions o =
        parse({"--l2", "256", "--l2-ways", "16", "--l2-repl", "fifo",
               "--l2-scheme", "WG", "--l2-vdd", "0.75"});
    EXPECT_EQ(o.l2SizeKb, 256u);
    EXPECT_EQ(o.l2Ways, 16u);
    EXPECT_EQ(o.l2Repl, mem::ReplKind::Fifo);
    EXPECT_EQ(o.l2Scheme, core::WriteScheme::WriteGrouping);
    EXPECT_DOUBLE_EQ(o.l2Vdd, 0.75);

    // The spec translation carries the level through.
    const core::JobSpec spec = toJobSpec(o);
    ASSERT_EQ(spec.levels.size(), 1u);
    EXPECT_EQ(spec.levels[0].sizeKb, 256u);
    EXPECT_EQ(spec.levels[0].ways, 16u);
    EXPECT_EQ(spec.levels[0].repl, mem::ReplKind::Fifo);
    EXPECT_EQ(spec.levels[0].scheme, core::WriteScheme::WriteGrouping);
    EXPECT_DOUBLE_EQ(spec.levels[0].vdd, 0.75);
}

TEST(Options, L2KnobsRequireL2)
{
    EXPECT_THROW(parse({"--l2-ways", "16"}), std::invalid_argument);
    EXPECT_THROW(parse({"--l2-vdd", "0.8"}), std::invalid_argument);
    EXPECT_THROW(parse({"--l2", "256", "--l2-vdd", "0"}),
                 std::invalid_argument);
}

TEST(Options, ExploreL2Sizes)
{
    const SimOptions o =
        parse({"--explore", "--explore-l2-sizes", "128,256"});
    ASSERT_EQ(o.exploreL2SizesKb.size(), 2u);
    EXPECT_EQ(o.exploreL2SizesKb[0], 128u);
    EXPECT_EQ(o.exploreL2SizesKb[1], 256u);
    EXPECT_EQ(toJobSpec(o).exploreL2SizesKb, o.exploreL2SizesKb);
}

TEST(Options, StreamCacheBudget)
{
    // -1 = "not given": keep the C8T_STREAM_CACHE_MB / built-in
    // default resolution in StreamCache.
    EXPECT_EQ(parse({}).streamCacheMb, -1);
    EXPECT_EQ(parse({"--stream-cache", "256"}).streamCacheMb, 256);
    // 0 is valid and means "disable caching".
    EXPECT_EQ(parse({"--stream-cache", "0"}).streamCacheMb, 0);
    EXPECT_THROW(parse({"--stream-cache"}), std::invalid_argument);
    EXPECT_THROW(parse({"--stream-cache", "lots"}),
                 std::invalid_argument);
}

TEST(Options, HelpShortCircuitsValidation)
{
    // --help with a nonsense shape must not throw.
    EXPECT_NO_THROW(parse({"--help", "--size", "7"}));
    EXPECT_TRUE(parse({"-h"}).help);
}

TEST(Options, VoltageFlags)
{
    const SimOptions defaults = parse({});
    EXPECT_EQ(defaults.vdd, 0.0);
    EXPECT_FALSE(defaults.vddSweep);
    EXPECT_FALSE(defaults.schemesGiven);

    const SimOptions point = parse({"--vdd", "0.75"});
    EXPECT_DOUBLE_EQ(point.vdd, 0.75);
    EXPECT_FALSE(point.vddSweep);

    const SimOptions sweep = parse({"--vdd-sweep"});
    EXPECT_TRUE(sweep.vddSweep);
    EXPECT_FALSE(sweep.schemesGiven);

    // --scheme / --all mark the selection as explicit so a --vdd-sweep
    // can tell a deliberate scheme list from the two-scheme default.
    EXPECT_TRUE(parse({"--scheme", "WG"}).schemesGiven);
    EXPECT_TRUE(parse({"--all"}).schemesGiven);

    EXPECT_THROW(parse({"--vdd"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "volts"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "0.8x"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "-0.5"}), std::invalid_argument);
}

TEST(Options, ExplorerFlags)
{
    const SimOptions defaults = parse({});
    EXPECT_FALSE(defaults.explore);
    EXPECT_TRUE(defaults.exploreWorkloads.empty());
    EXPECT_EQ(defaults.exploreSizesKb,
              (std::vector<std::uint64_t>{16, 32, 64, 128}));
    EXPECT_EQ(defaults.exploreWays, (std::vector<std::uint32_t>{2, 4, 8}));
    EXPECT_EQ(defaults.exploreBlocks, (std::vector<std::uint32_t>{32, 64}));
    EXPECT_EQ(defaults.exploreRepls,
              (std::vector<c8t::mem::ReplKind>{c8t::mem::ReplKind::Lru}));
    EXPECT_TRUE(defaults.exploreVdd.empty());
    EXPECT_TRUE(defaults.checkpointDir.empty());
    EXPECT_EQ(defaults.shardCells, 8u);
    EXPECT_EQ(defaults.exploreMaxShards, 0u);

    const SimOptions o = parse(
        {"--explore", "--explore-workloads", "gcc,mcf",
         "--explore-sizes", "16,32", "--explore-ways", "2,4",
         "--explore-blocks", "32", "--explore-repl", "lru,fifo",
         "--explore-vdd", "1.0,0.8", "--checkpoint-dir", "/tmp/ckpt",
         "--shard-cells", "3", "--explore-max-shards", "2"});
    EXPECT_TRUE(o.explore);
    EXPECT_EQ(o.exploreWorkloads,
              (std::vector<std::string>{"gcc", "mcf"}));
    EXPECT_EQ(o.exploreSizesKb, (std::vector<std::uint64_t>{16, 32}));
    EXPECT_EQ(o.exploreWays, (std::vector<std::uint32_t>{2, 4}));
    EXPECT_EQ(o.exploreBlocks, (std::vector<std::uint32_t>{32}));
    EXPECT_EQ(o.exploreRepls,
              (std::vector<c8t::mem::ReplKind>{c8t::mem::ReplKind::Lru,
                                               c8t::mem::ReplKind::Fifo}));
    EXPECT_EQ(o.exploreVdd, (std::vector<double>{1.0, 0.8}));
    EXPECT_EQ(o.checkpointDir, "/tmp/ckpt");
    EXPECT_EQ(o.shardCells, 3u);
    EXPECT_EQ(o.exploreMaxShards, 2u);

    // Keyword values: "all" workloads = every profile (empty list),
    // "grid" = the default Vdd grid, "none" = nominal-only.
    EXPECT_TRUE(
        parse({"--explore-workloads", "all"}).exploreWorkloads.empty());
    EXPECT_EQ(parse({"--explore-vdd", "grid"}).exploreVdd,
              c8t::sram::VddModel::defaultGrid());
    EXPECT_TRUE(parse({"--explore-vdd", "none"}).exploreVdd.empty());

    EXPECT_THROW(parse({"--explore-sizes"}), std::invalid_argument);
    EXPECT_THROW(parse({"--explore-sizes", ""}), std::invalid_argument);
    EXPECT_THROW(parse({"--explore-sizes", "16,big"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--explore-repl", "mru"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--explore-vdd", "volts"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--shard-cells", "0"}), std::invalid_argument);
}

TEST(Options, Errors)
{
    EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
    EXPECT_THROW(parse({"--accesses"}), std::invalid_argument);
    EXPECT_THROW(parse({"--accesses", "abc"}), std::invalid_argument);
    EXPECT_THROW(parse({"--accesses", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--scheme", "XYZ"}), std::invalid_argument);
    EXPECT_THROW(parse({"--repl", "mru"}), std::invalid_argument);
    EXPECT_THROW(parse({"--buffer-entries", "0"}),
                 std::invalid_argument);
    // Invalid cache shape caught by validation.
    EXPECT_THROW(parse({"--block", "24"}), std::invalid_argument);
}

TEST(Options, WorkerCountBounds)
{
    EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(parse({"--jobs", "4096"}).jobs,
              core::ParallelSweeper::kMaxWorkers);
    EXPECT_THROW(parse({"--jobs", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--jobs", "4097"}), std::invalid_argument);
    // Used to wrap to 1 worker through the unsigned narrowing.
    EXPECT_THROW(parse({"--jobs", "4294967297"}), std::invalid_argument);
    try {
        parse({"--jobs", "100000"});
        FAIL() << "--jobs 100000 accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("--jobs: must be <= 4096"),
                  std::string::npos)
            << e.what();
    }

    // c8td --jobs: 0 keeps meaning "auto", the upper bound is shared.
    EXPECT_EQ(parseWorkerCount("--jobs", "0", true), 0u);
    EXPECT_EQ(parseWorkerCount("--jobs", "8", true), 8u);
    EXPECT_THROW(parseWorkerCount("--jobs", "100000", true),
                 std::invalid_argument);
    EXPECT_THROW(parseWorkerCount("--jobs", "4294967297", true),
                 std::invalid_argument);
    EXPECT_THROW(parseWorkerCount("--jobs", "-1", true),
                 std::invalid_argument);
}

TEST(Options, UsageMentionsEveryFlag)
{
    const std::string u = usageText();
    for (const char *flag :
         {"--workload", "--accesses", "--warmup", "--record", "--size",
          "--ways", "--block", "--repl", "--scheme", "--all",
          "--buffer-entries", "--no-silent-detection", "--l2",
          "--l2-ways", "--l2-repl", "--l2-scheme", "--l2-vdd",
          "--explore-l2-sizes",
          "--stats", "--stats-json", "--csv", "--chrome-trace",
          "--trace-events", "--metrics-out", "--interval-stats", "--interval",
          "--progress", "--jobs", "--stream-cache", "--vdd",
          "--vdd-sweep", "--explore", "--explore-workloads",
          "--explore-sizes", "--explore-ways", "--explore-blocks",
          "--explore-repl", "--explore-vdd", "--checkpoint-dir",
          "--shard-cells", "--explore-max-shards"}) {
        EXPECT_NE(u.find(flag), std::string::npos) << flag;
    }
}

TEST(Workloads, SpecFactory)
{
    auto w = makeWorkload("spec:bwaves");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "bwaves");
    c8t::trace::MemAccess a;
    EXPECT_TRUE(w->next(a));
}

TEST(Workloads, KernelFactory)
{
    for (const auto &name : kernelNames()) {
        auto w = makeWorkload("kernel:" + name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
        c8t::trace::MemAccess a;
        EXPECT_TRUE(w->next(a)) << name;
    }
}

TEST(Workloads, Errors)
{
    EXPECT_THROW(makeWorkload("nonsense"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("spec:dealII"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("kernel:bogus"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("mars:rover"), std::invalid_argument);
    EXPECT_THROW(makeWorkload("trace:/no/such/file.trc"),
                 std::runtime_error);
}

} // anonymous namespace

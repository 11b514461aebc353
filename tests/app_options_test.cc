/**
 * @file
 * Unit tests for the c8tsim option parser and workload factory.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "app/options.hh"
#include "core/sweep.hh"
#include "sram/vmodel.hh"
#include "trace/workload.hh"

namespace
{

using namespace c8t::app;
using c8t::core::WriteScheme;
using c8t::trace::kernelNames;
using c8t::trace::makeWorkload;
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
    EXPECT_EQ(o.job.kind, core::JobKind::Run);
    EXPECT_EQ(o.job.workload, "spec:gcc");
    EXPECT_EQ(o.job.accesses, 1'000'000u);
    EXPECT_EQ(o.job.effectiveWarmup(), 100'000u);
    EXPECT_EQ(o.job.cache.sizeBytes, 64u * 1024);
    const std::vector<WriteScheme> schemes = o.job.effectiveSchemes();
    ASSERT_EQ(schemes.size(), 2u);
    EXPECT_EQ(schemes[0], WriteScheme::Rmw);
    EXPECT_EQ(schemes[1], WriteScheme::WriteGroupingReadBypass);
    EXPECT_TRUE(o.job.silentDetection);
    EXPECT_FALSE(o.help);
}

TEST(Options, CacheShape)
{
    const SimOptions o =
        parse({"--size", "32", "--ways", "8", "--block", "64",
               "--repl", "plru"});
    EXPECT_EQ(o.job.cache.sizeBytes, 32u * 1024);
    EXPECT_EQ(o.job.cache.ways, 8u);
    EXPECT_EQ(o.job.cache.blockBytes, 64u);
    EXPECT_EQ(o.job.cache.replacement, c8t::mem::ReplKind::TreePlru);
}

TEST(Options, SchemeSelection)
{
    const SimOptions o =
        parse({"--scheme", "WG", "--scheme", "RMW"});
    ASSERT_EQ(o.job.schemes.size(), 2u);
    EXPECT_EQ(o.job.schemes[0], WriteScheme::WriteGrouping);
    EXPECT_EQ(o.job.schemes[1], WriteScheme::Rmw);
}

TEST(Options, AllSchemes)
{
    const SimOptions o = parse({"--all"});
    EXPECT_EQ(o.job.schemes.size(), 6u);
}

TEST(Options, WarmupOverride)
{
    const SimOptions o =
        parse({"--accesses", "5000", "--warmup", "123"});
    EXPECT_EQ(o.job.accesses, 5000u);
    EXPECT_EQ(o.job.effectiveWarmup(), 123u);
}

TEST(Options, Toggles)
{
    const SimOptions o = parse({"--no-silent-detection", "--stats",
                                "--csv", "--buffer-entries", "4",
                                "--l2", "512"});
    EXPECT_FALSE(o.job.silentDetection);
    EXPECT_TRUE(o.dumpStats);
    EXPECT_TRUE(o.csv);
    EXPECT_EQ(o.job.bufferEntries, 4u);
    ASSERT_EQ(o.job.levels.size(), 1u);
    EXPECT_EQ(o.job.levels[0].sizeKb, 512u);
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
    EXPECT_TRUE(parse({}).job.levels.empty());
    // --l2 0 keeps meaning "no L2".
    EXPECT_TRUE(parse({"--l2", "0"}).job.levels.empty());
}

TEST(Options, HierarchyFlags)
{
    const SimOptions o =
        parse({"--l2", "256", "--l2-ways", "16", "--l2-repl", "fifo",
               "--l2-scheme", "WG", "--l2-vdd", "0.75"});
    // The --l2* flags fill one level; the block inherits the L1's.
    ASSERT_EQ(o.job.levels.size(), 1u);
    const core::LevelSpec &l2 = o.job.levels[0];
    EXPECT_EQ(l2.sizeKb, 256u);
    EXPECT_EQ(l2.ways, 16u);
    EXPECT_EQ(l2.blockBytes, 0u);
    EXPECT_EQ(l2.repl, mem::ReplKind::Fifo);
    EXPECT_EQ(l2.scheme, core::WriteScheme::WriteGrouping);
    EXPECT_DOUBLE_EQ(l2.vdd, 0.75);

    // Knobs may come before --l2; defaults are the LevelSpec's.
    const SimOptions late = parse({"--l2-ways", "4", "--l2", "128"});
    ASSERT_EQ(late.job.levels.size(), 1u);
    EXPECT_EQ(late.job.levels[0].ways, 4u);
    EXPECT_EQ(late.job.levels[0].scheme, core::WriteScheme::Rmw);
    EXPECT_EQ(parse({"--l2", "128"}).job.levels[0].ways, 8u);
}

TEST(Options, L2KnobsRequireL2)
{
    EXPECT_THROW(parse({"--l2-ways", "16"}), std::invalid_argument);
    EXPECT_THROW(parse({"--l2-vdd", "0.8"}), std::invalid_argument);
    EXPECT_THROW(parse({"--l2", "256", "--l2-vdd", "0"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"--l2", "0", "--l2-ways", "16"}),
                 std::invalid_argument);
}

TEST(Options, ExploreL2Sizes)
{
    const SimOptions o =
        parse({"--explore", "--explore-l2-sizes", "128,256"});
    ASSERT_EQ(o.job.exploreL2SizesKb.size(), 2u);
    EXPECT_EQ(o.job.exploreL2SizesKb[0], 128u);
    EXPECT_EQ(o.job.exploreL2SizesKb[1], 256u);
    EXPECT_EQ(o.job.explorerSpec().l2SizesKb, o.job.exploreL2SizesKb);
}

TEST(Options, StreamCacheBudget)
{
    // Unset = "not given": keep the C8T_STREAM_CACHE_MB / built-in
    // default resolution in StreamCache.
    EXPECT_FALSE(parse({}).streamCacheBytes.has_value());
    EXPECT_EQ(parse({"--stream-cache", "256"}).streamCacheBytes,
              std::size_t{256} << 20);
    // 0 is valid and means "disable caching".
    EXPECT_EQ(parse({"--stream-cache", "0"}).streamCacheBytes, 0u);
    EXPECT_THROW(parse({"--stream-cache"}), std::invalid_argument);
    EXPECT_THROW(parse({"--stream-cache", "lots"}),
                 std::invalid_argument);

    // The largest budget whose byte count fits is admitted; one MB
    // more used to wrap (2^44 MB shifted to a 0-byte budget, silently
    // disabling memoization), and 2^63 MB and up used to turn
    // negative and be ignored.
    constexpr std::size_t max_mb = SIZE_MAX >> 20;
    EXPECT_EQ(parseStreamCacheMb("--stream-cache", std::to_string(max_mb)),
              max_mb << 20);
    for (const char *mb :
         {"17592186044416", "9223372036854775808", "18446744073709551615"}) {
        try {
            parse({"--stream-cache", mb});
            FAIL() << "--stream-cache " << mb << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("--stream-cache: must be <="),
                      std::string::npos)
                << e.what();
        }
    }
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
    EXPECT_EQ(defaults.job.vdd, 0.0);
    EXPECT_EQ(defaults.job.kind, core::JobKind::Run);
    EXPECT_TRUE(defaults.job.schemes.empty());

    const SimOptions point = parse({"--vdd", "0.75"});
    EXPECT_DOUBLE_EQ(point.job.vdd, 0.75);
    EXPECT_EQ(point.job.kind, core::JobKind::Run);

    const SimOptions sweep = parse({"--vdd-sweep"});
    EXPECT_EQ(sweep.job.kind, core::JobKind::VddSweep);
    EXPECT_TRUE(sweep.job.schemes.empty());
    // With no --scheme/--all a sweep runs the voltage-story four.
    EXPECT_EQ(sweep.job.effectiveSchemes(), core::voltageStorySchemes());

    // --scheme / --all make the selection explicit, so a --vdd-sweep
    // can tell a deliberate scheme list from the kind default.
    EXPECT_EQ(parse({"--scheme", "WG"}).job.schemes,
              (std::vector<WriteScheme>{WriteScheme::WriteGrouping}));
    EXPECT_FALSE(parse({"--all"}).job.schemes.empty());

    EXPECT_THROW(parse({"--vdd"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "volts"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "0.8x"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"--vdd", "-0.5"}), std::invalid_argument);
}

TEST(Options, ExplorerFlags)
{
    const core::JobSpec defaults = parse({}).job;
    EXPECT_NE(defaults.kind, core::JobKind::Explore);
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

    // --explore wins over --vdd-sweep in either order.
    EXPECT_EQ(parse({"--explore", "--vdd-sweep"}).job.kind,
              core::JobKind::Explore);
    EXPECT_EQ(parse({"--vdd-sweep", "--explore"}).job.kind,
              core::JobKind::Explore);

    const core::JobSpec o = parse(
        {"--explore", "--explore-workloads", "gcc,mcf",
         "--explore-sizes", "16,32", "--explore-ways", "2,4",
         "--explore-blocks", "32", "--explore-repl", "lru,fifo",
         "--explore-vdd", "1.0,0.8", "--checkpoint-dir", "/tmp/ckpt",
         "--shard-cells", "3", "--explore-max-shards", "2"}).job;
    EXPECT_EQ(o.kind, core::JobKind::Explore);
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
        parse({"--explore-workloads", "all"}).job.exploreWorkloads.empty());
    EXPECT_EQ(parse({"--explore-vdd", "grid"}).job.exploreVdd,
              c8t::sram::VddModel::defaultGrid());
    EXPECT_TRUE(parse({"--explore-vdd", "none"}).job.exploreVdd.empty());

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

TEST(Options, ThirtyTwoBitFieldsRejectWrapping)
{
    // Each value used to wrap through a 32-bit cast to a valid field
    // (4294967300 ways ran a 4-way cache); now it is rejected naming
    // the flag.
    const struct
    {
        std::vector<const char *> args;
        const char *flag;
    } cases[] = {
        {{"--ways", "4294967300"}, "--ways"},
        {{"--block", "4294967328"}, "--block"},
        {{"--buffer-entries", "4294967297"}, "--buffer-entries"},
        {{"--l2", "256", "--l2-ways", "4294967304"}, "--l2-ways"},
        {{"--explore", "--explore-ways", "2,4294967298"}, "--explore-ways"},
        {{"--explore", "--explore-blocks", "4294967360"},
         "--explore-blocks"},
    };
    for (const auto &c : cases) {
        try {
            parseOptions({c.args.begin(), c.args.end()});
            FAIL() << c.flag << " accepted a value above 2^32";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string(c.flag) + ": must be <= 4294967295"),
                      std::string::npos)
                << e.what();
        }
    }
    // The 32-bit maximum itself parses (c8td --heartbeat-ms shares the
    // parser).
    EXPECT_EQ(parseU32("--heartbeat-ms", "4294967295"), UINT32_MAX);
    EXPECT_THROW(parseU32("--heartbeat-ms", "4294967296"),
                 std::invalid_argument);
}

TEST(Options, UnsignedFlagsRejectSigns)
{
    // std::stoull read "-1" as 2^64 - 1: --jobs -1 failed as "must be
    // <= 4096", --trace-events -1 as a vector length error, and
    // --stream-cache -0 disabled the cache; c8td's JSON parser already
    // rejected a negative. Only decimal digits are a value.
    for (const char *bad :
         {"-1", "-0", "+5", " 5", "5 ", "0x10", "", "18446744073709551616"}) {
        try {
            parseU64("--accesses", bad);
            FAIL() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "--accesses: expected an unsigned integer"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(parseU64("--accesses", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseU64("--accesses", "007"), 7u);
    EXPECT_THROW(parse({"--jobs", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--trace-events", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--stream-cache", "-0"}), std::invalid_argument);
    EXPECT_THROW(parseU32("--heartbeat-ms", "-1"), std::invalid_argument);
}

TEST(Options, CliAndWireParseToOneSpec)
{
    // A CLI run and a c8td request for the same job share one
    // canonical spec: the result memo key and the document bytes.
    const struct
    {
        const char *group;
        std::vector<const char *> flags;
        const char *json;
    } cases[] = {
        {"defaults", {}, R"({"kind":"run"})"},
        {"run",
         {"--workload", "spec:mcf", "--accesses", "5000", "--warmup", "100",
          "--size", "32", "--ways", "8", "--block", "64", "--repl", "fifo",
          "--scheme", "WG", "--scheme", "6T", "--buffer-entries", "4",
          "--no-silent-detection", "--vdd", "0.8"},
         R"({"kind":"run","workload":"spec:mcf","accesses":5000,)"
         R"("warmup":100,"cache":{"size_kb":32,"ways":8,"block":64,)"
         R"("repl":"fifo"},"schemes":["WG","6T"],"buffer_entries":4,)"
         R"("silent_detection":false,"vdd":0.8})"},
        {"l2",
         {"--l2-ways", "16", "--l2", "256", "--l2-repl", "fifo",
          "--l2-scheme", "WG", "--l2-vdd", "0.75"},
         R"({"kind":"run","levels":[{"size_kb":256,"ways":16,)"
         R"("repl":"fifo","scheme":"WG","vdd":0.75}]})"},
        {"vdd-sweep",
         {"--vdd-sweep", "--all", "--l2", "128"},
         R"({"kind":"vdd_sweep","schemes":["6T","RMW","LocalRMW",)"
         R"("WordGranular","WG","WG+RB"],"levels":[{"size_kb":128}]})"},
        {"vdd-sweep point", {"--vdd-sweep", "--vdd", "0.7"},
         R"({"kind":"vdd_sweep","vdd":0.7})"},
        {"explore defaults", {"--explore"}, R"({"kind":"explore"})"},
        {"explore",
         {"--explore", "--explore-workloads", "gcc,mcf", "--explore-sizes",
          "16,32", "--explore-ways", "2,4", "--explore-blocks", "32",
          "--explore-repl", "lru,fifo", "--explore-vdd", "1.0,0.8",
          "--explore-l2-sizes", "128", "--shard-cells", "3"},
         R"({"kind":"explore","explore":{"workloads":["gcc","mcf"],)"
         R"("sizes_kb":[16,32],"ways":[2,4],"blocks":[32],)"
         R"("repl":["lru","fifo"],"vdd":[1.0,0.8],"l2_sizes_kb":[128],)"
         R"("shard_cells":3}})"},
    };
    for (const auto &c : cases) {
        const core::JobSpec cli =
            parseOptions({c.flags.begin(), c.flags.end()}).job;
        EXPECT_EQ(cli.toJson(),
                  core::JobSpec::fromJsonText(c.json).toJson())
            << c.group;
    }
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
    auto w = makeWorkload("spec:bwaves")();
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "bwaves");
    c8t::trace::MemAccess a;
    EXPECT_TRUE(w->next(a));
}

TEST(Workloads, KernelFactory)
{
    for (const auto &name : kernelNames()) {
        auto w = makeWorkload("kernel:" + name)();
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
    // A trace file is opened by the factory, not by the parser.
    const auto missing = makeWorkload("trace:/no/such/file.trc");
    EXPECT_THROW(missing(), std::runtime_error);
}

} // anonymous namespace

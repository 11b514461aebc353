/**
 * @file
 * JobSpec JSON tests: strict unknown-key rejection (the satellite
 * contract: a client typo must fail loudly, never simulate the
 * default), defaults, round-tripping and validation (DESIGN.md §13).
 */

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "app/job_runner.hh"
#include "core/job_spec.hh"
#include "trace/workload.hh"

namespace
{

using namespace c8t;
using core::JobKind;
using core::JobSpec;

/** EXPECT that parsing @p text throws mentioning @p needle. */
void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        JobSpec::fromJsonText(text);
        FAIL() << "expected failure parsing: " << text;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
    }
}

TEST(JobSpecTest, MinimalRunSpecGetsDefaults)
{
    const JobSpec spec = JobSpec::fromJsonText("{\"kind\":\"run\"}");
    EXPECT_EQ(spec.kind, JobKind::Run);
    EXPECT_EQ(spec.workload, "spec:gcc");
    EXPECT_EQ(spec.accesses, 1'000'000u);
    EXPECT_EQ(spec.warmup, 0u);
    EXPECT_EQ(spec.effectiveWarmup(), 100'000u);
    EXPECT_TRUE(spec.schemes.empty());
    // Kind defaults: run = the paper's baseline pair.
    EXPECT_EQ(spec.effectiveSchemes().size(), 2u);
    EXPECT_TRUE(spec.silentDetection);
    EXPECT_EQ(spec.bufferEntries, 1u);
}

TEST(JobSpecTest, KindIsRequired)
{
    expectParseError("{}", "kind");
    expectParseError("{\"workload\":\"spec:gcc\"}", "kind");
}

TEST(JobSpecTest, UnknownKindRejected)
{
    expectParseError("{\"kind\":\"sweep\"}", "unknown kind");
}

TEST(JobSpecTest, UnknownTopLevelKeyRejected)
{
    // The canonical typo: "acceses" must not silently simulate 1M.
    expectParseError("{\"kind\":\"run\",\"acceses\":5}",
                     "unknown key \"acceses\"");
}

TEST(JobSpecTest, UnknownNestedCacheKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":32,\"way\":4}}",
        "unknown key \"way\"");
}

TEST(JobSpecTest, UnknownNestedExploreKeyRejected)
{
    expectParseError(
        "{\"kind\":\"explore\",\"explore\":{\"sizes\":[16]}}",
        "unknown key \"sizes\"");
}

TEST(JobSpecTest, ExploreAxesOnNonExploreKindRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"explore\":{\"sizes_kb\":[16]}}",
        "non-explore");
}

TEST(JobSpecTest, DuplicateKeysRejected)
{
    expectParseError("{\"kind\":\"run\",\"kind\":\"run\"}",
                     "duplicate");
}

TEST(JobSpecTest, FractionalIntegerRejected)
{
    expectParseError("{\"kind\":\"run\",\"accesses\":10.5}",
                     "accesses");
    // Scientific notation is exact-integer-ambiguous; the raw token
    // check rejects it for integer fields.
    expectParseError("{\"kind\":\"run\",\"accesses\":1e6}",
                     "accesses");
}

TEST(JobSpecTest, MalformedJsonRejectedWithOffset)
{
    expectParseError("{\"kind\":\"run\"", "byte");
    expectParseError("{\"kind\":\"run\"} trailing", "byte");
    expectParseError("", "byte");
}

TEST(JobSpecTest, FullSpecParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"workload\":\"kernel:hash_update\","
        "\"accesses\":250000,\"warmup\":1000,"
        "\"cache\":{\"size_kb\":64,\"ways\":8,\"block\":32,"
        "\"repl\":\"lru\"},"
        "\"schemes\":[\"RMW\",\"WG+RB\"],\"buffer_entries\":4,"
        "\"silent_detection\":false,\"levels\":[{\"size_kb\":256}],"
        "\"vdd\":0.8}");
    EXPECT_EQ(spec.workload, "kernel:hash_update");
    EXPECT_EQ(spec.accesses, 250'000u);
    EXPECT_EQ(spec.warmup, 1'000u);
    EXPECT_EQ(spec.cache.sizeBytes, 64u * 1024);
    EXPECT_EQ(spec.cache.ways, 8u);
    EXPECT_EQ(spec.cache.blockBytes, 32u);
    EXPECT_EQ(spec.schemes.size(), 2u);
    EXPECT_EQ(spec.bufferEntries, 4u);
    EXPECT_FALSE(spec.silentDetection);
    // A bare capacity is a default-shaped L2.
    ASSERT_EQ(spec.levels.size(), 1u);
    EXPECT_EQ(spec.levels[0].sizeKb, 256u);
    EXPECT_EQ(spec.levels[0].ways, 8u);
    EXPECT_DOUBLE_EQ(spec.vdd, 0.8);
}

TEST(JobSpecTest, LevelsArrayParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":512,\"ways\":16,"
        "\"repl\":\"fifo\",\"scheme\":\"WG\",\"vdd\":0.7}]}");
    ASSERT_EQ(spec.levels.size(), 1u);
    EXPECT_EQ(spec.levels[0].sizeKb, 512u);
    EXPECT_EQ(spec.levels[0].ways, 16u);
    EXPECT_EQ(spec.levels[0].blockBytes, 0u); // inherits the L1 block
    EXPECT_EQ(spec.levels[0].repl, mem::ReplKind::Fifo);
    EXPECT_EQ(spec.levels[0].scheme, core::WriteScheme::WriteGrouping);
    EXPECT_DOUBLE_EQ(spec.levels[0].vdd, 0.7);
}

TEST(JobSpecTest, UnknownLevelKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":256,\"way\":8}]}",
        "unknown key \"way\"");
}

TEST(JobSpecTest, DuplicateLevelKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\","
        "\"levels\":[{\"size_kb\":256,\"size_kb\":512}]}",
        "duplicate");
}

TEST(JobSpecTest, L2AliasAndLevelsAreMutuallyExclusive)
{
    // The retired tags-only shim's "l2_kb" alias is gone: it is an
    // unknown key on its own and next to "levels" alike.
    expectParseError("{\"kind\":\"run\",\"l2_kb\":256}",
                     "unknown key \"l2_kb\"");
    expectParseError("{\"kind\":\"run\",\"l2_kb\":256,"
                     "\"levels\":[{\"size_kb\":256}]}",
                     "unknown key \"l2_kb\"");
}

TEST(JobSpecTest, LevelSpecRoundTripsThroughCanonicalForm)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":256,\"ways\":8,"
        "\"scheme\":\"RMW\",\"vdd\":0.75}]}");
    const std::string canonical = spec.toJson();
    // The canonical form carries the "levels" array.
    EXPECT_EQ(canonical.find("l2_kb"), std::string::npos);
    EXPECT_NE(canonical.find("\"levels\""), std::string::npos);
    const JobSpec again = JobSpec::fromJsonText(canonical);
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.levels, spec.levels);
}

TEST(JobSpecTest, SingleLevelCanonicalFormHasNoLevelsKey)
{
    // The gating contract: a single-level spec serializes without any
    // hierarchy key, byte-identical to pre-hierarchy builds.
    JobSpec spec;
    EXPECT_EQ(spec.toJson().find("levels"), std::string::npos);
    EXPECT_EQ(spec.toJson().find("l2_kb"), std::string::npos);
}

TEST(JobSpecTest, LevelValidationCatchesBadShapes)
{
    // Block mismatch with the L1 (default 32 B) and negative vdd.
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"block\":64}]}", "block");
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"vdd\":-0.5}]}", "vdd");
}

TEST(JobSpecTest, LowerLevelSmallerThanTheLevelAboveIsRejected)
{
    // Below the default 64 KB L1, and an L3 below its L2: both fail at
    // admission as spec errors, not later on a worker.
    expectParseError("{\"kind\":\"run\",\"workload\":\"spec:gcc\","
                     "\"accesses\":2000,\"levels\":[{\"size_kb\":16}]}",
                     "job spec: levels[].size_kb 16 is smaller than the "
                     "level above it (64 KB)");
    expectParseError("{\"kind\":\"run\",\"levels\":[{\"size_kb\":256},"
                     "{\"size_kb\":128}]}",
                     "job spec: levels[].size_kb 128 is smaller than the "
                     "level above it (256 KB)");
    // Equal sizes leave inclusion room and are admitted.
    EXPECT_NO_THROW(JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":256},"
        "\"levels\":[{\"size_kb\":256},{\"size_kb\":256}]}"));
}

TEST(JobSpecTest, ExploreL2SizesParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"explore\":{\"sizes_kb\":[16],"
        "\"l2_sizes_kb\":[128,256]}}");
    ASSERT_EQ(spec.exploreL2SizesKb.size(), 2u);
    EXPECT_EQ(spec.exploreL2SizesKb[0], 128u);
    const std::string canonical = spec.toJson();
    const JobSpec again = JobSpec::fromJsonText(canonical);
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.exploreL2SizesKb, spec.exploreL2SizesKb);
}

TEST(JobSpecTest, ExploreSpecParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"accesses\":50000,"
        "\"explore\":{\"workloads\":[\"gcc\",\"mcf\"],"
        "\"sizes_kb\":[16,32],\"ways\":[2],\"blocks\":[64],"
        "\"repl\":[\"lru\"],\"vdd\":[0.8,0.7],\"shard_cells\":4}}");
    EXPECT_EQ(spec.kind, JobKind::Explore);
    EXPECT_EQ(spec.exploreWorkloads.size(), 2u);
    EXPECT_EQ(spec.exploreSizesKb.size(), 2u);
    EXPECT_EQ(spec.exploreVdd.size(), 2u);
    EXPECT_EQ(spec.shardCells, 4u);
    // Explore kind default: the voltage-story four.
    EXPECT_EQ(spec.effectiveSchemes().size(), 4u);
}

TEST(JobSpecTest, ToJsonRoundTripsEquivalently)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"accesses\":50000,"
        "\"schemes\":[\"RMW\"],"
        "\"explore\":{\"workloads\":[\"gcc\"],\"sizes_kb\":[16],"
        "\"ways\":[2],\"blocks\":[64],\"vdd\":[0.75]}}");
    const std::string canonical = spec.toJson();
    const JobSpec again = JobSpec::fromJsonText(canonical);
    // Canonical form is a fixed point: equal specs -> equal bytes
    // (the daemon keys its whole-result memo on this).
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.accesses, spec.accesses);
    EXPECT_EQ(again.schemes, spec.schemes);
    EXPECT_EQ(again.exploreWorkloads, spec.exploreWorkloads);
    EXPECT_EQ(again.exploreVdd, spec.exploreVdd);
}

TEST(JobSpecTest, DefaultSpecRoundTrips)
{
    for (const char *kind : {"run", "vdd_sweep", "explore"}) {
        JobSpec spec;
        spec.kind = core::parseJobKind(kind);
        const JobSpec again = JobSpec::fromJsonText(spec.toJson());
        EXPECT_EQ(again.toJson(), spec.toJson()) << kind;
    }
}

TEST(JobSpecTest, ValidationCatchesBadShapes)
{
    expectParseError("{\"kind\":\"run\",\"accesses\":0}",
                     "accesses");
    expectParseError("{\"kind\":\"run\",\"buffer_entries\":0}",
                     "buffer_entries");
    expectParseError("{\"kind\":\"run\",\"vdd\":-0.5}", "vdd");
    expectParseError("{\"kind\":\"run\",\"workload\":\"gcc\"}",
                     "workload");
    expectParseError(
        "{\"kind\":\"explore\",\"explore\":{\"shard_cells\":0}}",
        "shard_cells");
}

TEST(JobSpecTest, ReplacementBoundsNameTheField)
{
    // Shapes the replacement encodings cannot represent fail naming
    // the spec object and the field, for the L1 and for a level.
    const std::string plru3 =
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":48,\"ways\":3,"
        "\"repl\":\"plru\"}}";
    expectParseError(plru3, "cache: ");
    expectParseError(plru3, "ways");
    const std::string lru32 =
        "{\"kind\":\"run\",\"cache\":{\"ways\":32,\"repl\":\"lru\"}}";
    expectParseError(lru32, "cache: ");
    expectParseError(lru32, "ways");
    const std::string level_lru32 =
        "{\"kind\":\"run\",\"levels\":[{\"ways\":32,\"repl\":\"lru\"}]}";
    expectParseError(level_lru32, "levels[]: ");
    expectParseError(level_lru32, "ways");
    EXPECT_NO_THROW(JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"cache\":{\"ways\":16,\"repl\":\"lru\"}}"));
}

TEST(JobSpecTest, ConfigRunsFollowTheKind)
{
    // Run: one config-run per scheme (kind default RMW + WG+RB).
    EXPECT_EQ(JobSpec::fromJsonText("{\"kind\":\"run\"}").configRuns(),
              2u);
    // Vdd sweep: the four voltage-story schemes at 11 default grid
    // points, or at the single point an explicit vdd narrows it to.
    EXPECT_EQ(
        JobSpec::fromJsonText("{\"kind\":\"vdd_sweep\"}").configRuns(),
        44u);
    EXPECT_EQ(JobSpec::fromJsonText(
                  "{\"kind\":\"vdd_sweep\",\"vdd\":0.8}")
                  .configRuns(),
              4u);
    // Explore defaults: 25 SPEC profiles x 4 sizes x 3 ways x 2 blocks
    // x 1 policy cells, 4 schemes each; a Vdd grid and an L2 axis
    // multiply in.
    EXPECT_EQ(
        JobSpec::fromJsonText("{\"kind\":\"explore\"}").configRuns(),
        2400u);
    const JobSpec grid = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"explore\":{\"workloads\":[\"gcc\"],"
        "\"vdd\":[1.0,0.9,0.8],\"l2_sizes_kb\":[256,512]}}");
    EXPECT_EQ(grid.configRuns(), 1u * 4 * 3 * 2 * 2 * 3 * 4);
    EXPECT_EQ(grid.simulatedAccesses(),
              grid.configRuns() * (1'000'000u + 100'000u));
}

TEST(JobSpecTest, UnknownWorkloadsAreRejectedWithTheParsersMessage)
{
    for (const std::string w :
         {"spec:nosuch", "kernel:nosuch", "mars:rover", "gcc"}) {
        std::string parser;
        try {
            trace::makeWorkload(w);
        } catch (const std::invalid_argument &e) {
            parser = e.what();
        }
        ASSERT_FALSE(parser.empty()) << w;
        expectParseError(
            "{\"kind\":\"run\",\"workload\":\"" + w + "\"}", parser);
    }
    // A trace file is opened by the job that replays it, not at
    // admission.
    EXPECT_NO_THROW(JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"workload\":\"trace:/no/such/file.trc\"}"));
}

TEST(JobSpecTest, ConfigRunsCountTheRunsAVddSweepExecutes)
{
    for (const std::string extra :
         {"", ",\"vdd\":0.7", ",\"levels\":[{\"size_kb\":256}]",
          ",\"vdd\":0.7,\"levels\":[{\"size_kb\":256}]"}) {
        const JobSpec spec = JobSpec::fromJsonText(
            "{\"kind\":\"vdd_sweep\",\"accesses\":2000,\"warmup\":200" +
            extra + "}");
        std::mutex mutex;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> progress;
        app::JobHooks hooks;
        hooks.onProgress = [&](std::uint64_t done, std::uint64_t total) {
            const std::lock_guard<std::mutex> lock(mutex);
            progress.emplace_back(done, total);
        };
        const app::JobOutcome out = app::runJobSpec(spec, 2, hooks);
        std::uint64_t runs = 0;
        for (const core::VddCurve &c : out.vdd->curves)
            runs += c.points.size();
        EXPECT_EQ(spec.configRuns(), runs) << extra;
        // Progress counts config-runs, not grid points.
        ASSERT_FALSE(progress.empty()) << extra;
        for (const auto &[done, total] : progress)
            EXPECT_EQ(total, runs) << extra;
        EXPECT_EQ(progress.back().first, runs) << extra;
    }
}

TEST(JobSpecTest, ExploreAxesAreCheckedAtAdmission)
{
    // What the explorer would reject on a worker fails when the spec
    // is parsed, with the explorer's message.
    expectParseError(
        R"({"kind":"explore","explore":{"workloads":["nosuch"]}})",
        "job spec: ExplorerSpec: unknown workload \"nosuch\"");
    expectParseError(
        R"({"kind":"explore","explore":{"workloads":["gcc"],"vdd":[0.7,0.8]}})",
        "job spec: ExplorerSpec: grid must be strictly descending");
}

TEST(JobSpecTest, EngineSpecsShareTheLevelShape)
{
    // A level block of 0 inherits the L1 block, in every engine spec.
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"cache\":{\"block\":64},"
        "\"levels\":[{\"size_kb\":512,\"ways\":16}]}");
    const std::vector<core::LevelConfig> lower = spec.levelConfigs();
    ASSERT_EQ(lower.size(), 1u);
    EXPECT_EQ(lower[0].cache.sizeBytes, 512u * 1024);
    EXPECT_EQ(lower[0].cache.ways, 16u);
    EXPECT_EQ(lower[0].cache.blockBytes, 64u);
    EXPECT_EQ(spec.vddSweepSpec().lowerLevels, lower);
    const std::vector<core::SweepJob> jobs = spec.sweepJobs();
    ASSERT_EQ(jobs.size(), spec.configRuns());
    for (const core::SweepJob &job : jobs) {
        ASSERT_EQ(job.configs.size(), 1u);
        EXPECT_EQ(job.configs[0].lowerLevels, lower);
        EXPECT_EQ(job.streamKey, spec.streamKey());
    }
}

TEST(JobSpecTest, AdmissionLimitRejectsHugeAccesses)
{
    // 10^15 accesses would pin the shared pool for days.
    try {
        JobSpec::fromJsonText(
            "{\"kind\":\"run\",\"accesses\":1000000000000000}");
        FAIL() << "expected JobTooLarge";
    } catch (const core::JobTooLarge &e) {
        EXPECT_NE(std::string(e.what()).find("too large"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("simulated accesses"),
                  std::string::npos);
    }

    // The bound itself is admitted; one access more is not. One
    // scheme, so config-runs x (accesses + warm-up) is exact.
    const std::string one =
        "{\"kind\":\"run\",\"schemes\":[\"RMW\"],\"warmup\":1,"
        "\"accesses\":";
    const JobSpec at = JobSpec::fromJsonText(
        one + std::to_string(core::kMaxJobSimulatedAccesses - 1) + "}");
    EXPECT_EQ(at.simulatedAccesses(), core::kMaxJobSimulatedAccesses);
    EXPECT_THROW(
        JobSpec::fromJsonText(
            one + std::to_string(core::kMaxJobSimulatedAccesses) + "}"),
        core::JobTooLarge);
}

TEST(JobSpecTest, AdmissionLimitRejectsHugeGrids)
{
    // 200 sizes x 100 ways x 100 blocks x 4 schemes = 8 M config-runs
    // of one access each: small in accesses, over the run bound.
    const auto list = [](int n) {
        std::string out = "[";
        for (int i = 1; i <= n; ++i) {
            if (i > 1)
                out += ',';
            out += std::to_string(i);
        }
        return out + "]";
    };
    try {
        JobSpec::fromJsonText(
            "{\"kind\":\"explore\",\"accesses\":1,\"warmup\":1,"
            "\"explore\":{\"workloads\":[\"gcc\"],\"sizes_kb\":" +
            list(200) + ",\"ways\":" + list(100) + ",\"blocks\":" +
            list(100) + "}}");
        FAIL() << "expected JobTooLarge";
    } catch (const core::JobTooLarge &e) {
        EXPECT_NE(std::string(e.what()).find("8000000 config-runs"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JobSpecTest, AdmissionLimitRejectsHugeLevels)
{
    const auto expect_too_large = [](const std::string &text,
                                     const std::string &field) {
        try {
            JobSpec::fromJsonText(text);
            FAIL() << "expected JobTooLarge for " << text;
        } catch (const core::JobTooLarge &e) {
            EXPECT_NE(std::string(e.what()).find("too large: " + field),
                      std::string::npos)
                << e.what();
        }
    };
    // 128 GiB with 2^30 sets: a valid shape a worker cannot allocate.
    expect_too_large("{\"kind\":\"run\",\"cache\":{\"size_kb\":134217728,"
                     "\"ways\":4,\"block\":32}}",
                     "cache.size_kb");
    // 2^54 + 64 KB wraps to 64 KB if multiplied before the check.
    expect_too_large("{\"kind\":\"run\",\"cache\":{\"size_kb\":"
                     "18014398509482048,\"ways\":4,\"block\":32}}",
                     "cache.size_kb");
    // A 64 GiB L2.
    expect_too_large("{\"kind\":\"run\",\"levels\":[{\"size_kb\":67108864,"
                     "\"ways\":8}]}",
                     "levels[].size_kb");
    expect_too_large("{\"kind\":\"explore\",\"explore\":{\"sizes_kb\":"
                     "[64,18014398509482048]}}",
                     "explore.sizes_kb[]");
    expect_too_large("{\"kind\":\"explore\",\"explore\":{\"l2_sizes_kb\":"
                     "[134217728]}}",
                     "explore.l2_sizes_kb[]");

    // The bound itself is admitted: a 64 MiB cache over a 64 MiB L2.
    const JobSpec at = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":65536},"
        "\"levels\":[{\"size_kb\":65536,\"ways\":8}]}");
    EXPECT_EQ(at.cache.sizeBytes, core::kMaxJobLevelBytes);

    // A spec built in code (the CLI front end) is checked in bytes.
    JobSpec spec;
    spec.cache.sizeBytes = core::kMaxJobLevelBytes + 1024;
    EXPECT_THROW(spec.validate(), core::JobTooLarge);
    EXPECT_THROW(core::levelBytesFromKb(18014398509482048ull, "--size"),
                 core::JobTooLarge);
}

TEST(JobSpecTest, AdmissionCountsSaturateInsteadOfWrapping)
{
    JobSpec spec;
    spec.accesses = UINT64_MAX;
    spec.warmup = 5;
    EXPECT_EQ(spec.simulatedAccesses(), UINT64_MAX);
    EXPECT_THROW(spec.validate(), core::JobTooLarge);

    // 2^63 per run x 2 schemes wraps a 64-bit product to 0.
    spec = JobSpec{};
    spec.accesses = (std::uint64_t{1} << 63) - 1;
    spec.warmup = 1;
    EXPECT_EQ(spec.configRuns(), 2u);
    EXPECT_EQ(spec.simulatedAccesses(), UINT64_MAX);
    EXPECT_THROW(spec.validate(), core::JobTooLarge);
}

TEST(JobSpecTest, ThirtyTwoBitKeysRejectWrapping)
{
    // Each value used to wrap through a 32-bit cast to a valid field
    // (4294967300 ways ran a 4-way cache); now it is rejected naming
    // the key.
    const struct
    {
        const char *json;
        const char *key;
    } cases[] = {
        {R"({"kind":"run","cache":{"ways":4294967300}})", "cache.ways"},
        {R"({"kind":"run","cache":{"block":4294967328}})", "cache.block"},
        {R"({"kind":"run","buffer_entries":4294967297})", "buffer_entries"},
        {R"({"kind":"run","levels":[{"ways":4294967304}]})",
         "levels[].ways"},
        {R"({"kind":"run","levels":[{"block":4294967328}]})",
         "levels[].block"},
        {R"({"kind":"explore","explore":{"ways":[2,4294967298]}})",
         "explore.ways[]"},
        {R"({"kind":"explore","explore":{"blocks":[4294967360]}})",
         "explore.blocks[]"},
    };
    for (const auto &c : cases)
        expectParseError(c.json, std::string(c.key) + ": must be <= 4294967295");
    // Past 2^64 a 64-bit key is rejected too, not cast out of range.
    expectParseError(R"({"kind":"run","accesses":18446744073709551616})",
                     "accesses: must be <= 18446744073709551615");
}

TEST(JobSpecTest, ExploreRunsTheTranslatedExplorerSpec)
{
    const JobSpec spec = JobSpec::fromJsonText(
        R"({"kind":"explore","explore":{"workloads":["gcc"],)"
        R"("vdd":[1.0,0.9],"l2_sizes_kb":[256],"shard_cells":3}})");
    const core::ExplorerSpec espec = spec.explorerSpec();
    EXPECT_EQ(espec.label, "c8tsim_explore");
    EXPECT_EQ(espec.workloads, std::vector<std::string>{"gcc"});
    EXPECT_EQ(espec.sizesKb, spec.exploreSizesKb);
    EXPECT_EQ(espec.schemes, core::voltageStorySchemes());
    EXPECT_EQ(espec.vddGrid, spec.exploreVdd);
    EXPECT_EQ(espec.l2SizesKb, spec.exploreL2SizesKb);
    EXPECT_EQ(espec.cellsPerShard, 3u);
    EXPECT_EQ(spec.configRuns(), espec.configRunCount());
    // No workload list = every calibrated SPEC profile.
    EXPECT_EQ(JobSpec::fromJsonText(R"({"kind":"explore"})")
                  .explorerSpec()
                  .workloads.size(),
              25u);
}

TEST(JobSpecTest, ExploreConfigRunsSaturate)
{
    // 2^16 entries on four axes: the cell product is 2^64, which
    // wraps a plain 64-bit count to 0 and would pass admission.
    JobSpec spec;
    spec.kind = JobKind::Explore;
    spec.exploreWorkloads = {"gcc"};
    spec.exploreSizesKb.assign(1 << 16, 16);
    spec.exploreWays.assign(1 << 16, 2);
    spec.exploreBlocks.assign(1 << 16, 32);
    spec.exploreRepls.assign(1 << 16, mem::ReplKind::Lru);
    EXPECT_EQ(spec.explorerSpec().cellCount(), UINT64_MAX);
    EXPECT_EQ(spec.configRuns(), UINT64_MAX);
    EXPECT_THROW(spec.validate(), core::JobTooLarge);
}

TEST(JobSpecTest, CheckpointKnobsAreNotWireKeys)
{
    // Server-side file paths stay out of the JSON schema by design.
    expectParseError(
        "{\"kind\":\"explore\",\"checkpoint_dir\":\"/tmp/x\"}",
        "unknown key \"checkpoint_dir\"");
    expectParseError(
        "{\"kind\":\"explore\",\"explore_max_shards\":2}",
        "unknown key \"explore_max_shards\"");
}

} // namespace

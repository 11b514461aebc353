/**
 * @file
 * Unit tests for the simulation drivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/options.hh"
#include "core/simulator.hh"
#include "obs/event_ring.hh"
#include "trace/kernels.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t::core;
using c8t::mem::Addr;
using c8t::mem::FunctionalMemory;
using c8t::trace::MemAccess;

std::vector<ControllerConfig>
threeSchemes()
{
    std::vector<ControllerConfig> cfgs(3);
    cfgs[0].scheme = WriteScheme::Rmw;
    cfgs[1].scheme = WriteScheme::WriteGrouping;
    cfgs[2].scheme = WriteScheme::WriteGroupingReadBypass;
    return cfgs;
}

TEST(MultiSchemeRunner, RejectsEmptyConfigList)
{
    EXPECT_THROW(MultiSchemeRunner{std::vector<ControllerConfig>{}},
                 std::invalid_argument);
}

TEST(MultiSchemeRunner, ProducesOneResultPerConfig)
{
    c8t::trace::HashUpdateKernel gen(1024, 20000, 0.3, 0.5);
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {1000, 10000});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].scheme, "RMW");
    EXPECT_EQ(results[1].scheme, "WG");
    EXPECT_EQ(results[2].scheme, "WG+RB");
    for (const auto &r : results)
        EXPECT_EQ(r.workload, "hash_update");
}

TEST(MultiSchemeRunner, WarmupExcludedFromMeasurement)
{
    c8t::trace::MarkovStream gen(c8t::trace::specProfile("sphinx3"));
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {5000, 20000});
    for (const auto &r : results)
        EXPECT_EQ(r.requests, 20000u);
}

TEST(MultiSchemeRunner, BoundedGeneratorStopsEarly)
{
    c8t::trace::StreamCopyKernel gen(1000, 1); // 2000 accesses total
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {500, 10000});
    for (const auto &r : results)
        EXPECT_EQ(r.requests, 1500u);
}

TEST(MultiSchemeRunner, ResultFieldsConsistent)
{
    c8t::trace::MarkovStream gen(c8t::trace::specProfile("gcc"));
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {2000, 30000});
    for (const auto &r : results) {
        EXPECT_EQ(r.requests, r.reads + r.writes);
        EXPECT_EQ(r.demandAccesses,
                  r.demandRowReads + r.demandRowWrites);
        EXPECT_EQ(r.requests, r.hits + r.misses);
        EXPECT_GT(r.dynamicEnergy, 0.0);
        EXPECT_GT(r.cycles, 0u);
        EXPECT_GT(r.meanReadLatency, 0.0);
    }
}

TEST(MultiSchemeRunner, ReductionShapeOnFriendlyWorkload)
{
    // A store-heavy, reuse-heavy kernel must reproduce the paper's
    // ordering: WG+RB <= WG < RMW.
    c8t::trace::HashUpdateKernel gen(512, 50000, 0.4, 1.0);
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {2000, 80000});
    EXPECT_LT(results[1].demandAccesses, results[0].demandAccesses);
    EXPECT_LE(results[2].demandAccesses, results[1].demandAccesses);
}

TEST(MultiSchemeRunner, SameStreamForEveryScheme)
{
    c8t::trace::MarkovStream gen(c8t::trace::specProfile("namd"));
    MultiSchemeRunner runner(threeSchemes());
    const auto results = runner.run(gen, {1000, 10000});
    for (const auto &r : results) {
        EXPECT_EQ(r.reads, results[0].reads);
        EXPECT_EQ(r.writes, results[0].writes);
        EXPECT_EQ(r.misses, results[0].misses);
    }
}

TEST(AnalyzeStream, MatchesKernelStructure)
{
    // stream_copy alternates R/W: 50 % writes, no silent stores.
    c8t::trace::StreamCopyKernel gen(5000, 1);
    c8t::mem::AddrLayout layout(32, 512);
    const StreamStats s = analyzeStream(gen, layout, 10000);
    EXPECT_EQ(s.accesses, 10000u);
    EXPECT_NEAR(
        s.writeInstrFraction / (s.readInstrFraction + s.writeInstrFraction),
        0.5, 1e-9);
    EXPECT_DOUBLE_EQ(s.silentWriteFraction, 0.0);
    EXPECT_EQ(s.workload, "stream_copy");
}

TEST(AnalyzeStream, ResetsGeneratorFirst)
{
    c8t::trace::StreamCopyKernel gen(100, 1);
    c8t::mem::AddrLayout layout(32, 512);
    const StreamStats a = analyzeStream(gen, layout, 200);
    const StreamStats b = analyzeStream(gen, layout, 200);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_DOUBLE_EQ(a.wwShare, b.wwShare);
}

/** A WG controller at supply @p vdd (0 = detached). */
ControllerConfig
wgAt(double vdd)
{
    ControllerConfig c;
    c.scheme = WriteScheme::WriteGrouping;
    c.vdd = vdd;
    return c;
}

/** A 6T L1 at nominal over a WG L2 at supply @p l2_vdd. */
ControllerConfig
wgL2At(double l2_vdd)
{
    ControllerConfig c;
    c.cache = c8t::mem::CacheConfig{16 * 1024, 4, 32};
    c.scheme = WriteScheme::SixTDirect;
    LevelConfig l2;
    l2.cache = c8t::mem::CacheConfig{32 * 1024, 4, 32};
    l2.scheme = WriteScheme::WriteGrouping;
    l2.vdd = l2_vdd;
    c.lowerLevels = {l2};
    return c;
}

TEST(SharesReplay, SuppliesThatResolveAlikeShareAReplay)
{
    // 0.90 V and 0.80 V both resolve to {3,3,2} cycles; 1.00 V is the
    // nominal {2,2,1} and 0.95 V already {3,3,2}.
    ASSERT_EQ(resolvedLatency(wgAt(0.9)), resolvedLatency(wgAt(0.8)));
    EXPECT_TRUE(sharesReplay(wgAt(0.9), wgAt(0.8)));
    EXPECT_TRUE(sharesReplay(wgAt(0.8), wgAt(0.9)));
    EXPECT_FALSE(sharesReplay(wgAt(1.0), wgAt(0.95)));
    // Detached and attached at nominal are the same run.
    EXPECT_TRUE(sharesReplay(wgAt(0.0), wgAt(1.0)));
    EXPECT_TRUE(sharesReplay(wgL2At(0.9), wgL2At(0.85)));
}

TEST(SharesReplay, AnyOtherDifferenceBreaksTheMatch)
{
    ControllerConfig rmw = wgAt(0.9);
    rmw.scheme = WriteScheme::Rmw;
    EXPECT_FALSE(sharesReplay(wgAt(0.9), rmw));

    ControllerConfig buffered = wgAt(0.8);
    buffered.bufferEntries = 2;
    EXPECT_FALSE(sharesReplay(wgAt(0.9), buffered));

    // The L2's supply counts through its own cycles: 0.60 V is
    // {7,7,4}, and a depth mismatch never matches.
    EXPECT_FALSE(sharesReplay(wgL2At(0.9), wgL2At(0.6)));
    EXPECT_FALSE(sharesReplay(wgL2At(0.9), wgAt(0.9)));

    // Detached supplies resolve alike whatever the model constants,
    // but the constants still have to match.
    ControllerConfig other_model = wgAt(1.0);
    other_model.vmodel.alpha = 1.4;
    ASSERT_EQ(resolvedLatency(wgAt(1.0)), resolvedLatency(other_model));
    EXPECT_FALSE(sharesReplay(wgAt(1.0), other_model));
}

TEST(MultiSchemeRunner, SharedReplayIsPricedPerSupply)
{
    // WG at 0.90 / 0.85 / 0.50 V: the first two share a replay, the
    // third does not. Each result equals the config's own lone run,
    // energies included, bit for bit.
    for (const bool hierarchy : {false, true}) {
        SCOPED_TRACE(hierarchy ? "hierarchy" : "single level");
        const auto at = [&](double vdd) {
            return hierarchy ? wgL2At(vdd) : wgAt(vdd);
        };
        const std::vector<ControllerConfig> configs{at(0.9), at(0.85),
                                                    at(0.5)};
        const RunConfig rc{1'000, 6'000};
        MultiSchemeRunner runner(configs);
        EXPECT_EQ(runner.controllers(), 3u);
        EXPECT_EQ(&runner.stack(0), &runner.stack(1));
        EXPECT_NE(&runner.stack(0), &runner.stack(2));
        c8t::trace::MarkovStream gen(c8t::trace::specProfile("gcc"));
        const auto got = runner.run(gen, rc);
        ASSERT_EQ(got.size(), configs.size());
        EXPECT_NE(got[0].totalDynamicEnergy, got[1].totalDynamicEnergy);

        const auto bits = [](double d) {
            return std::bit_cast<std::uint64_t>(d);
        };
        for (std::size_t i = 0; i < configs.size(); ++i) {
            MultiSchemeRunner alone({configs[i]});
            c8t::trace::MarkovStream g(c8t::trace::specProfile("gcc"));
            const SchemeRunResult want = alone.run(g, rc).front();
            EXPECT_EQ(got[i], want) << "config " << i;
            EXPECT_EQ(bits(got[i].dynamicEnergy), bits(want.dynamicEnergy));
            EXPECT_EQ(bits(got[i].totalDynamicEnergy),
                      bits(want.totalDynamicEnergy));
            ASSERT_EQ(got[i].levels.size(), hierarchy ? 1u : 0u);
            if (hierarchy) {
                EXPECT_EQ(bits(got[i].levels[0].dynamicEnergy),
                          bits(want.levels[0].dynamicEnergy));
            }
        }
    }
}

TEST(SnapshotResult, CopiesCounters)
{
    c8t::mem::FunctionalMemory mem;
    ControllerConfig cfg;
    cfg.scheme = WriteScheme::WriteGrouping;
    CacheController c(cfg, mem);

    c8t::trace::MemAccess w;
    w.addr = 0x1000;
    w.type = c8t::trace::AccessType::Write;
    w.data = 5;
    c.access(w);
    c.access(w);

    const SchemeRunResult r = snapshotResult("unit", c);
    EXPECT_EQ(r.workload, "unit");
    EXPECT_EQ(r.scheme, "WG");
    EXPECT_EQ(r.requests, 2u);
    EXPECT_EQ(r.writes, 2u);
    EXPECT_EQ(r.groupedWrites, 1u);
}

constexpr WriteScheme kAllSchemes[] = {
    WriteScheme::SixTDirect,    WriteScheme::Rmw,
    WriteScheme::LocalRmw,      WriteScheme::WordGranular,
    WriteScheme::WriteGrouping, WriteScheme::WriteGroupingReadBypass};

/** Two plan-group shapes: many small blocks, and few large ones. */
const c8t::mem::CacheConfig kGroupShapes[] = {{32 * 1024, 4, 32},
                                              {8 * 1024, 2, 64}};

/** The 25 SPEC profiles and the six kernels, as workload specifiers. */
std::vector<std::string>
groupStreams()
{
    std::vector<std::string> out;
    for (const std::string &b : c8t::trace::specBenchmarkNames())
        out.push_back("spec:" + b);
    for (const std::string &k : c8t::app::kernelNames())
        out.push_back("kernel:" + k);
    return out;
}

/** gtest parameter name of a workload specifier ("spec:gcc" ->
 *  "spec_gcc"). */
std::string
streamCaseName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string name = info.param;
    std::replace(name.begin(), name.end(), ':', '_');
    return name;
}

/** The first @p n accesses of @p workload (fewer if it ends). */
std::vector<MemAccess>
pullStream(const std::string &workload, std::size_t n)
{
    const auto gen = c8t::app::makeWorkload(workload);
    std::vector<MemAccess> out(n);
    std::size_t got = 0;
    while (got < n) {
        const std::size_t k = gen->fillChunk(out.data() + got, n - got);
        if (k == 0)
            break;
        got += k;
    }
    out.resize(got);
    return out;
}

/** The distinct block addresses @p stream touches. */
std::vector<Addr>
blockFootprint(const std::vector<MemAccess> &stream,
               std::uint32_t block_bytes)
{
    std::vector<Addr> blocks;
    blocks.reserve(stream.size());
    for (const MemAccess &a : stream)
        blocks.push_back(a.addr & ~static_cast<Addr>(block_bytes - 1));
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
    return blocks;
}

/** The first block of @p blocks on which @p a and @p b differ, or
 *  blocks.size() when they agree on all of them. */
std::size_t
firstMismatch(const FunctionalMemory &a, const FunctionalMemory &b,
              const std::vector<Addr> &blocks, std::uint32_t block_bytes)
{
    std::vector<std::uint8_t> x(block_bytes), y(block_bytes);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        a.readBytes(blocks[i], x.data(), block_bytes);
        b.readBytes(blocks[i], y.data(), block_bytes);
        if (std::memcmp(x.data(), y.data(), block_bytes) != 0)
            return i;
    }
    return blocks.size();
}

/** Empty when every memory of @p memories, one per scheme of
 *  kAllSchemes, equals the first on @p blocks; otherwise names the
 *  first member that differs and the block. */
std::string
memoryMismatch(const std::vector<std::unique_ptr<FunctionalMemory>> &memories,
               const std::vector<Addr> &blocks, std::uint32_t block_bytes)
{
    for (std::size_t m = 1; m < memories.size(); ++m) {
        const std::size_t bad = firstMismatch(*memories.front(),
                                              *memories[m], blocks,
                                              block_bytes);
        if (bad != blocks.size()) {
            std::ostringstream os;
            os << toString(kAllSchemes[m]) << " vs "
               << toString(kAllSchemes[0]) << ": block 0x" << std::hex
               << blocks[bad];
            return os.str();
        }
    }
    return {};
}

/** The architectural memory after @p stream: every write applied in
 *  order, little endian, to a zero memory — a reference that shares no
 *  code with the controllers. */
void
applyWrites(const std::vector<MemAccess> &stream, FunctionalMemory &out)
{
    for (const MemAccess &a : stream) {
        if (!a.isWrite())
            continue;
        std::uint8_t bytes[8];
        for (std::uint8_t k = 0; k < a.size; ++k)
            bytes[k] = static_cast<std::uint8_t>(a.data >> (8 * k));
        out.writeBytes(a.addr, bytes, a.size);
    }
}

/**
 * The gate for one backing memory per plan group: the members of a
 * plan group, each over its own memory, hold equal memories after
 * every chunk — every scheme writes back the same architectural bytes
 * at the same evictions. So a miss fill reads the same block from any
 * member's memory, and one memory can serve the whole group. Planned
 * groups replay one shared stage-1 plan: every scheme, at two shapes,
 * with one and four buffer entries and with silent detection on and
 * off. The live groups, which do not plan, run in lockstep (access i
 * reaches every member before access i+1, as applyPlanGroup() runs
 * them): a Random-replacement group, and a two-level group of one L1
 * shape over one L2, every scheme at the top level.
 */
class PlanGroupMemories : public ::testing::TestWithParam<std::string>
{};

TEST_P(PlanGroupMemories, EqualAfterEveryChunk)
{
    constexpr std::size_t kChunk = CacheController::kReplayChunkAccesses;
    constexpr std::size_t kChunks = 5;
    const std::vector<MemAccess> stream =
        pullStream(GetParam(), kChunk * kChunks);
    ASSERT_FALSE(stream.empty());

    for (const c8t::mem::CacheConfig &shape : kGroupShapes) {
        const std::vector<Addr> blocks =
            blockFootprint(stream, shape.blockBytes);
        for (const std::uint32_t entries : {1u, 4u}) {
            for (const bool silent : {true, false}) {
                std::vector<std::unique_ptr<FunctionalMemory>> memories;
                std::vector<std::unique_ptr<CacheController>> group;
                for (const WriteScheme scheme : kAllSchemes) {
                    ControllerConfig cfg;
                    cfg.cache = shape;
                    cfg.scheme = scheme;
                    cfg.bufferEntries = entries;
                    cfg.silentDetection = silent;
                    memories.push_back(
                        std::make_unique<FunctionalMemory>());
                    group.push_back(std::make_unique<CacheController>(
                        cfg, *memories.back()));
                }

                for (std::size_t at = 0; at < stream.size(); at += kChunk) {
                    const std::size_t n =
                        std::min(kChunk, stream.size() - at);
                    const c8t::mem::ChunkPlan *plan =
                        group.front()->planReplayChunk(stream.data() + at,
                                                       n);
                    ASSERT_NE(plan, nullptr);
                    for (auto &ctrl : group)
                        ctrl->accessChunk(stream.data() + at, n, plan);

                    ASSERT_EQ(memoryMismatch(memories, blocks,
                                             shape.blockBytes),
                              "")
                        << shape.toString() << ", " << entries
                        << " entries, silent " << silent
                        << ", after chunk " << at / kChunk;
                }
            }
        }
    }

    for (const bool two_level : {false, true}) {
        ControllerConfig cfg;
        cfg.cache = kGroupShapes[1];
        if (two_level) {
            LevelConfig l2;
            l2.cache = {32 * 1024, 4, 64};
            cfg.lowerLevels.push_back(l2);
        } else {
            cfg.cache.replacement = c8t::mem::ReplKind::Random;
        }
        std::vector<std::unique_ptr<FunctionalMemory>> memories;
        std::vector<std::unique_ptr<LevelStack>> group;
        for (const WriteScheme scheme : kAllSchemes) {
            cfg.scheme = scheme;
            memories.push_back(std::make_unique<FunctionalMemory>());
            group.push_back(
                std::make_unique<LevelStack>(cfg, *memories.back()));
        }
        const std::vector<Addr> blocks =
            blockFootprint(stream, cfg.cache.blockBytes);

        for (std::size_t at = 0; at < stream.size(); at += kChunk) {
            const std::size_t n = std::min(kChunk, stream.size() - at);
            ASSERT_EQ(group.front()->planReplayChunk(stream.data() + at, n),
                      nullptr);
            for (std::size_t i = at; i < at + n; ++i) {
                for (auto &stack : group)
                    stack->access(stream[i]);
            }
            ASSERT_EQ(memoryMismatch(memories, blocks, cfg.cache.blockBytes),
                      "")
                << (two_level ? "two-level" : "Random")
                << " group, after chunk " << at / kChunk;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Streams, PlanGroupMemories,
                         ::testing::ValuesIn(groupStreams()),
                         streamCaseName);

/**
 * One memory per plan group changes nothing observable. A fused runner
 * — every configuration in one runner, each plan group over one
 * memory — against one runner per configuration (groups of one, each
 * over its own memory): equal results and event totals, and after
 * drain and flush equal memories and equal words, each the value the
 * stream's writes left there. The two shapes are interleaved, so the
 * fused runner's groups are not contiguous, and two live groups share
 * a memory each: a Random-replacement pair and a two-level group of
 * every scheme over one L2.
 */
class SharedGroupMemory : public ::testing::TestWithParam<std::string>
{};

TEST_P(SharedGroupMemory, MatchesSeparateMemories)
{
    std::vector<ControllerConfig> cfgs;
    for (const WriteScheme scheme : kAllSchemes) {
        for (const c8t::mem::CacheConfig &shape : kGroupShapes) {
            ControllerConfig cfg;
            cfg.cache = shape;
            cfg.scheme = scheme;
            cfgs.push_back(cfg);
        }
    }
    for (const WriteScheme scheme :
         {WriteScheme::Rmw, WriteScheme::WriteGroupingReadBypass}) {
        ControllerConfig cfg;
        cfg.cache = kGroupShapes[0];
        cfg.cache.replacement = c8t::mem::ReplKind::Random;
        cfg.scheme = scheme;
        cfgs.push_back(cfg);
    }
    for (const WriteScheme scheme : kAllSchemes) {
        ControllerConfig cfg;
        cfg.cache = kGroupShapes[0];
        cfg.scheme = scheme;
        LevelConfig l2;
        l2.cache = {64 * 1024, 8, 32};
        cfg.lowerLevels.push_back(l2);
        cfgs.push_back(cfg);
    }
    // A partial last chunk, and statistics reset between the windows.
    const RunConfig rc{2048, 3 * CacheController::kReplayChunkAccesses +
                                 123};

    // Rings first, so they outlive the controllers they observe.
    std::vector<std::unique_ptr<c8t::obs::EventRing>> rings;
    const auto attachRing = [&rings](CacheController &c) {
        rings.push_back(std::make_unique<c8t::obs::EventRing>(64));
        c.attachEventRing(rings.back().get());
    };

    MultiSchemeRunner fused(cfgs);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        attachRing(fused.controller(i));
    const auto fused_gen = c8t::app::makeWorkload(GetParam());
    const std::vector<SchemeRunResult> fused_res = fused.run(*fused_gen, rc);
    ASSERT_EQ(fused_res.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        for (std::size_t j = 0; j < cfgs.size(); ++j) {
            EXPECT_EQ(&fused.stack(i).memory() == &fused.stack(j).memory(),
                      sharesPlan(cfgs[i], cfgs[j]))
                << "configs " << i << " and " << j;
        }
    }

    std::vector<std::unique_ptr<MultiSchemeRunner>> alone;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        alone.push_back(std::make_unique<MultiSchemeRunner>(
            std::vector<ControllerConfig>{cfgs[i]}));
        attachRing(alone.back()->controller(0));
        const auto gen = c8t::app::makeWorkload(GetParam());
        const std::vector<SchemeRunResult> res = alone.back()->run(*gen, rc);
        ASSERT_EQ(res.size(), 1u);
        EXPECT_EQ(res[0], fused_res[i]) << "config " << i;
        EXPECT_EQ(rings[cfgs.size() + i]->typeCounts(),
                  rings[i]->typeCounts())
            << "config " << i;
    }

    // run() drained every controller; flush every member of the fused
    // runner into its group's memory, then each lone runner.
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        fused.stack(i).flushToMemory();
        alone[i]->stack(0).flushToMemory();
    }
    const std::vector<MemAccess> stream =
        pullStream(GetParam(), rc.warmupAccesses + rc.measureAccesses);
    FunctionalMemory written;
    applyWrites(stream, written);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::uint32_t block_bytes = cfgs[i].cache.blockBytes;
        const std::vector<Addr> blocks = blockFootprint(stream, block_bytes);
        const std::size_t bad =
            firstMismatch(fused.stack(i).memory(),
                          alone[i]->stack(0).memory(), blocks, block_bytes);
        ASSERT_EQ(bad, blocks.size())
            << "config " << i << ": block 0x" << std::hex << blocks[bad];
        for (const Addr block : blocks) {
            for (Addr w = block; w < block + block_bytes; w += 8) {
                ASSERT_EQ(fused.stack(i).peekWord(w),
                          alone[i]->stack(0).peekWord(w))
                    << "config " << i << ": word 0x" << std::hex << w;
                ASSERT_EQ(fused.stack(i).peekWord(w), written.readWord(w))
                    << "config " << i << ": word 0x" << std::hex << w;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Streams, SharedGroupMemory,
                         ::testing::ValuesIn(groupStreams()),
                         streamCaseName);

} // anonymous namespace

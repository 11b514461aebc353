/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: per-access
 * cost of each write scheme's controller path, the stream generator,
 * and the SEC-DED codec. These guard the simulation's own performance
 * (the full figure sweeps run hundreds of millions of accesses).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "mem/cache.hh"
#include "mem/simd.hh"
#include "sram/ecc.hh"
#include "sram/fault_injection.hh"
#include "sram/vmodel.hh"
#include "trace/markov_stream.hh"
#include "trace/replay.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;

/** Way-compare kernel input: flat per-set tag rows shaped like the
 *  default cache (8 ways), with needles that hit a different way per
 *  lookup so the match is never branch-predicted away. */
struct WayCompareFixture
{
    static constexpr std::uint32_t kWays = 8;
    static constexpr std::size_t kSets = 256;

    std::vector<mem::Addr> tags;    // kSets rows of kWays tags
    std::vector<mem::Addr> needles; // one per lookup, cycling hit ways

    WayCompareFixture()
    {
        tags.resize(kSets * kWays);
        needles.resize(kSets);
        std::uint64_t v = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = 0; i < tags.size(); ++i) {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            tags[i] = v;
        }
        for (std::size_t s = 0; s < kSets; ++s)
            needles[s] = tags[s * kWays + s % kWays];
    }

    /** One pass of kSets lookups; returns the OR of the masks so the
     *  compiler cannot elide the compares. */
    std::uint64_t pass() const
    {
        std::uint64_t acc = 0;
        for (std::size_t s = 0; s < kSets; ++s) {
            acc |= mem::simd::matchBits(tags.data() + s * kWays, kWays,
                                        needles[s]);
        }
        return acc;
    }
};

/**
 * The built way-compare kernel in isolation (mem/simd.hh), labelled
 * with its level. items/s is tag lookups (one full 8-way compare
 * each), uncontaminated by the rest of the access path.
 */
void
BM_WayCompare(benchmark::State &state)
{
    static const WayCompareFixture fixture;
    for (auto _ : state)
        benchmark::DoNotOptimize(fixture.pass());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(WayCompareFixture::kSets));
    state.SetLabel(mem::simd::toString(mem::simd::activeLevel()));
}
BENCHMARK(BM_WayCompare);

void
BM_MarkovStreamGeneration(benchmark::State &state)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    trace::MemAccess a;
    for (auto _ : state) {
        gen.next(a);
        benchmark::DoNotOptimize(a.addr);
    }
}
BENCHMARK(BM_MarkovStreamGeneration);

/**
 * Generator-only throughput of the batched path: one fillChunk() call
 * per state.range(0)-access chunk, no controller attached. items/s is
 * generated accesses per second; compare against
 * BM_MarkovStreamNextLoop (the identical work through per-access
 * next()) to read off the batching speedup alone.
 */
void
BM_MarkovStreamFillChunk(benchmark::State &state)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> chunk(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        gen.fillChunk(chunk.data(), chunk.size());
        benchmark::DoNotOptimize(chunk.front().addr);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MarkovStreamFillChunk)->Arg(64)->Arg(1024)->Arg(4096);

/** Per-access next() over the same chunk sizes, for a like-for-like
 *  items/s comparison with BM_MarkovStreamFillChunk. */
void
BM_MarkovStreamNextLoop(benchmark::State &state)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> chunk(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (auto &a : chunk)
            gen.next(a);
        benchmark::DoNotOptimize(chunk.front().addr);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MarkovStreamNextLoop)->Arg(64)->Arg(1024)->Arg(4096);

/** Replay of a cached stream: unpacking its 16-byte records (the
 *  StreamCache hit path). */
void
BM_ReplayFillChunk(benchmark::State &state)
{
    constexpr std::size_t kStream = 1u << 20;
    auto buffer =
        std::make_shared<std::vector<trace::MemAccess>>(kStream);
    {
        trace::MarkovStream gen(trace::specProfile("gcc"));
        gen.fillChunk(buffer->data(), kStream);
    }
    trace::ReplayGenerator replay("gcc", buffer);
    std::vector<trace::MemAccess> chunk(4096);
    for (auto _ : state) {
        if (replay.fillChunk(chunk.data(), chunk.size()) < chunk.size())
            replay.reset();
        benchmark::DoNotOptimize(chunk.front().addr);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_ReplayFillChunk);

void
BM_ControllerAccess(benchmark::State &state)
{
    const auto scheme = static_cast<core::WriteScheme>(state.range(0));
    trace::MarkovStream gen(trace::specProfile("gcc"));
    mem::FunctionalMemory memory;
    core::ControllerConfig cfg;
    cfg.scheme = scheme;
    core::CacheController ctrl(cfg, memory);

    trace::MemAccess a;
    for (auto _ : state) {
        gen.next(a);
        benchmark::DoNotOptimize(ctrl.access(a).data);
    }
    state.SetLabel(toString(scheme));
}
BENCHMARK(BM_ControllerAccess)
    ->Arg(static_cast<int>(core::WriteScheme::SixTDirect))
    ->Arg(static_cast<int>(core::WriteScheme::Rmw))
    ->Arg(static_cast<int>(core::WriteScheme::WriteGrouping))
    ->Arg(static_cast<int>(core::WriteScheme::WriteGroupingReadBypass));

/**
 * End-to-end sweep throughput: every SPEC profile through RMW and
 * WG+RB on the default cache, fanned across state.range(0) workers.
 * items/s is simulated accesses per wall-clock second, so the ratio
 * between the /1 row and the /N rows is the sweep engine's speedup.
 */
void
BM_SweepThroughput(benchmark::State &state)
{
    const unsigned workers = static_cast<unsigned>(state.range(0));
    const mem::CacheConfig cache;
    const std::vector<core::WriteScheme> schemes = {
        core::WriteScheme::Rmw,
        core::WriteScheme::WriteGroupingReadBypass};
    const auto jobs = core::specSweepJobs(cache, schemes);
    const core::RunConfig rc{2'000, 20'000};
    const core::ParallelSweeper sweeper(workers);

    for (auto _ : state) {
        const auto results = sweeper.run(jobs, rc, "bench_sweep");
        benchmark::DoNotOptimize(results.front().front().demandAccesses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(jobs.size()) *
        static_cast<std::int64_t>(schemes.size()) *
        static_cast<std::int64_t>(rc.warmupAccesses + rc.measureAccesses));
    state.SetLabel("workers=" + std::to_string(sweeper.workers()));
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_SecDedEncode(benchmark::State &state)
{
    std::uint64_t v = 0x123456789abcdef0ull;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sram::SecDed72::encode(v));
        ++v;
    }
}
BENCHMARK(BM_SecDedEncode);

void
BM_SecDedDecodeCorrected(benchmark::State &state)
{
    sram::Codeword72 cw = sram::SecDed72::encode(0xdeadbeefcafef00dull);
    cw.flip(17);
    for (auto _ : state)
        benchmark::DoNotOptimize(sram::SecDed72::decode(cw).data);
}
BENCHMARK(BM_SecDedDecodeCorrected);

/**
 * One Monte-Carlo fault-map campaign as the hierarchy Vdd sweep runs
 * it on its 8T 256 KB/8-way L2: 1024 rows of 32 words, interleave
 * degree 4. Arg 0 is the 6T array at 0.50 V, where most words take
 * several faults; arg 1 is the 8T array at 0.70 V, a sparse map where
 * most rows take one fault. items/s is words evaluated.
 */
void
BM_FaultMapCampaign(benchmark::State &state)
{
    const bool six_t = state.range(0) == 0;
    sram::FaultMapConfig cfg;
    cfg.cell = six_t ? sram::CellType::SixT : sram::CellType::EightT;
    cfg.vdd = six_t ? 0.50 : 0.70;
    cfg.pfailCell = sram::VddModel().at(cfg.vdd, cfg.cell).pfailCell;
    cfg.rows = 1024;
    cfg.wordsPerRow = 32;
    cfg.degree = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sram::runFaultMapCampaign(cfg).silentCorruptions);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            cfg.rows * cfg.wordsPerRow);
    state.SetLabel(six_t ? "6T@0.50V" : "8T@0.70V");
}
BENCHMARK(BM_FaultMapCampaign)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();

/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: per-access
 * cost of each write scheme's controller path, the stream generator,
 * and the SEC-DED codec. These guard the simulation's own performance
 * (the full figure sweeps run hundreds of millions of accesses).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
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

    /** One pass of kSets lookups at @p level; returns the OR of the
     *  masks so the compiler cannot elide the compares. */
    std::uint64_t passAt(mem::simd::SimdLevel level) const
    {
        std::uint64_t acc = 0;
        for (std::size_t s = 0; s < kSets; ++s) {
            acc |= mem::simd::matchBits(level, tags.data() + s * kWays,
                                        kWays, needles[s]);
        }
        return acc;
    }
};

/**
 * The vectorized way-compare in isolation, per dispatch level.
 * items/s is tag lookups (one full 8-way compare each); the ratio
 * between the /scalar row and the /sse2 / /avx2 rows is the SIMD
 * speedup of the kernel alone, uncontaminated by the rest of the
 * access path. Levels the CPU cannot run are skipped.
 */
void
BM_WayCompare(benchmark::State &state)
{
    const auto level =
        static_cast<mem::simd::SimdLevel>(state.range(0));
    if (mem::simd::setLevel(level) != level) {
        state.SkipWithError("SIMD level unsupported on this CPU");
        return;
    }
    static const WayCompareFixture fixture;
    for (auto _ : state)
        benchmark::DoNotOptimize(fixture.passAt(level));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(WayCompareFixture::kSets));
    state.SetLabel(mem::simd::toString(level));
}
BENCHMARK(BM_WayCompare)
    ->Arg(static_cast<int>(mem::simd::SimdLevel::Scalar))
    ->Arg(static_cast<int>(mem::simd::SimdLevel::Sse2))
    ->Arg(static_cast<int>(mem::simd::SimdLevel::Avx2));

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

/** Zero-copy replay of a cached stream (the StreamCache hit path). */
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

/**
 * Append one kind:"micro" perf record per supported dispatch level
 * when C8T_BENCH_JSON is set, alongside the sweep engine's
 * kind:"sweep" and the voltage sweep's kind:"vdd" rows (same
 * JSON-lines file, same accesses_per_sec rate field, so
 * tools/bench_diff.sh pairs them on (kind, label, workers) like any
 * other record). The rate is measured here with a fixed-work wall
 * clock rather than scraped from google-benchmark, so the record
 * exists even when the binary runs with a --benchmark_filter that
 * excludes BM_WayCompare.
 */
void
emitWayCompareMicroRecords()
{
    const char *path = std::getenv("C8T_BENCH_JSON");
    if (!path || !*path)
        return;

    std::ofstream os(path, std::ios::app);
    if (!os) {
        std::cerr << "micro_perf: cannot open C8T_BENCH_JSON=\"" << path
                  << "\" for append; perf records disabled\n";
        return;
    }

    const WayCompareFixture fixture;

    // ~16M lookups, best of 3: long enough to be stable, short
    // enough to not dominate the report run.
    constexpr int kReps = 3;
    constexpr std::size_t kPasses = 1u << 16;
    constexpr double kLookups =
        static_cast<double>(kPasses) * WayCompareFixture::kSets;
    const auto timeLevel = [&](mem::simd::SimdLevel level) {
        double best_seconds = 0.0;
        std::uint64_t sink = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            for (std::size_t p = 0; p < kPasses; ++p)
                sink |= fixture.passAt(level);
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (rep == 0 || dt.count() < best_seconds)
                best_seconds = dt.count();
        }
        benchmark::DoNotOptimize(sink);
        return best_seconds;
    };

    for (mem::simd::SimdLevel level :
         {mem::simd::SimdLevel::Scalar, mem::simd::SimdLevel::Sse2,
          mem::simd::SimdLevel::Avx2}) {
        if (mem::simd::setLevel(level) != level)
            continue; // CPU cannot run this level

        const double best_seconds = timeLevel(level);
        os << "{\"kind\":\"micro\",\"label\":\"way_compare:"
           << mem::simd::toString(level) << "\""
           << ",\"workers\":1"
           << ",\"ways\":" << WayCompareFixture::kWays
           << ",\"lookups\":" << static_cast<std::uint64_t>(kLookups)
           << ",\"wall_seconds\":" << best_seconds
           << ",\"accesses_per_sec\":"
           << (best_seconds > 0.0 ? kLookups / best_seconds : 0.0)
           << "}\n";
    }

    // The guard for C8T_SIMD=auto: what the calibrator picks and what
    // it delivers. A future regression where auto resolves to a level
    // measurably slower than the named records shows up in
    // bench_diff.sh as a drop on this row.
    const mem::simd::SimdLevel resolved =
        mem::simd::autoCalibratedLevel();
    mem::simd::setLevel(resolved);
    const double auto_seconds = timeLevel(resolved);
    os << "{\"kind\":\"micro\",\"label\":\"way_compare:auto\""
       << ",\"workers\":1"
       << ",\"resolved\":\"" << mem::simd::toString(resolved) << "\""
       << ",\"ways\":" << WayCompareFixture::kWays
       << ",\"lookups\":" << static_cast<std::uint64_t>(kLookups)
       << ",\"wall_seconds\":" << auto_seconds
       << ",\"accesses_per_sec\":"
       << (auto_seconds > 0.0 ? kLookups / auto_seconds : 0.0)
       << "}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    emitWayCompareMicroRecords();
    return 0;
}

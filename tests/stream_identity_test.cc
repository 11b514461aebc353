/**
 * @file
 * Stream-identity guarantees behind the batched/memoized fast path.
 *
 * The chunked runner and the cross-job stream cache are pure
 * performance mechanisms: they must be invisible in every result.
 * This suite pins the three layers of that argument:
 *
 *  1. fillChunk() produces byte-identical MemAccess sequences to
 *     repeated next() for every calibrated SPEC profile and every
 *     kernel (including end-of-stream behaviour), across awkward
 *     chunk sizes.
 *  2. PackedStream round-trips every field edge, escaping the records
 *     that do not fit; ReplayGenerator replays a captured buffer
 *     byte-identically, and StreamCache hit/miss/bypass/eviction
 *     behaviour is observable and bounded by its byte budget.
 *  3. ParallelSweeper results are bit-identical with the cache
 *     enabled vs disabled, for 1/2/8 workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/simulator.hh"
#include "core/stream_cache.hh"
#include "core/sweep.hh"
#include "trace/kernels.hh"
#include "trace/markov_stream.hh"
#include "trace/replay.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace c8t;
using core::StreamCache;
using trace::AccessGenerator;
using trace::MemAccess;
using trace::PackedStream;

/** What a cached stream of @p n ordinary accesses is charged. */
constexpr std::uint64_t
packedBytes(std::uint64_t n)
{
    return n * sizeof(trace::PackedAccess);
}

/** Drain @p n accesses via next(). */
std::vector<MemAccess>
collectNext(AccessGenerator &gen, std::size_t n)
{
    std::vector<MemAccess> out;
    out.reserve(n);
    MemAccess a;
    while (out.size() < n && gen.next(a))
        out.push_back(a);
    return out;
}

/** Drain @p n accesses via fillChunk() with rotating odd sizes. */
std::vector<MemAccess>
collectChunked(AccessGenerator &gen, std::size_t n)
{
    // Deliberately awkward chunk sizes: prime, one, large, and a
    // power of two, so chunk boundaries land everywhere.
    const std::size_t sizes[] = {7, 1, 613, 4096, 64};
    std::vector<MemAccess> out(n);
    std::size_t filled = 0;
    std::size_t turn = 0;
    while (filled < n) {
        const std::size_t want =
            std::min(sizes[turn++ % std::size(sizes)], n - filled);
        const std::size_t got = gen.fillChunk(out.data() + filled, want);
        filled += got;
        if (got < want)
            break;
    }
    out.resize(filled);
    return out;
}

class SpecStreamIdentity
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(SpecStreamIdentity, FillChunkMatchesNext)
{
    const trace::StreamParams p = trace::specProfile(GetParam());
    trace::MarkovStream by_next(p);
    trace::MarkovStream by_chunk(p);

    constexpr std::size_t kAccesses = 20'000;
    const auto a = collectNext(by_next, kAccesses);
    const auto b = collectChunked(by_chunk, kAccesses);
    ASSERT_EQ(a.size(), kAccesses);
    ASSERT_EQ(b.size(), kAccesses);
    for (std::size_t i = 0; i < kAccesses; ++i)
        ASSERT_TRUE(a[i] == b[i]) << GetParam() << " access " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SpecStreamIdentity,
    ::testing::ValuesIn(trace::specBenchmarkNames()),
    [](const auto &info) { return info.param; });

/** Kernel factories, each small enough to run to exhaustion. */
std::vector<std::unique_ptr<AccessGenerator>>
makeKernels()
{
    std::vector<std::unique_ptr<AccessGenerator>> v;
    v.push_back(std::make_unique<trace::StreamCopyKernel>(1'000, 3));
    v.push_back(std::make_unique<trace::StencilKernel>(500, 2));
    v.push_back(std::make_unique<trace::PointerChaseKernel>(256, 5'000));
    v.push_back(
        std::make_unique<trace::HashUpdateKernel>(512, 4'000, 0.3, 0.8));
    v.push_back(std::make_unique<trace::FillKernel>(1'500, 3));
    v.push_back(std::make_unique<trace::TransposeKernel>(64, 8));
    return v;
}

TEST(KernelStreamIdentity, FillChunkMatchesNextToExhaustion)
{
    auto by_next = makeKernels();
    auto by_chunk = makeKernels();
    for (std::size_t k = 0; k < by_next.size(); ++k) {
        // Ask for more than the kernels produce so both paths hit the
        // end of the stream.
        constexpr std::size_t kMoreThanAny = 1'000'000;
        const auto a = collectNext(*by_next[k], kMoreThanAny);
        const auto b = collectChunked(*by_chunk[k], kMoreThanAny);
        ASSERT_LT(a.size(), kMoreThanAny) << by_next[k]->name();
        ASSERT_EQ(a.size(), b.size()) << by_next[k]->name();
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(a[i] == b[i])
                << by_next[k]->name() << " access " << i;

        // Exhausted generators keep reporting end-of-stream.
        MemAccess scratch;
        EXPECT_EQ(by_chunk[k]->fillChunk(&scratch, 1), 0u);
        EXPECT_FALSE(by_next[k]->next(scratch));
    }
}

TEST(ReplayGenerator, ReplaysBufferByteIdentically)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    constexpr std::size_t kAccesses = 5'000;
    auto buffer = std::make_shared<std::vector<MemAccess>>(kAccesses);
    ASSERT_EQ(gen.fillChunk(buffer->data(), kAccesses), kAccesses);

    trace::ReplayGenerator replay("gcc", buffer);
    EXPECT_EQ(replay.name(), "gcc");
    EXPECT_EQ(replay.size(), kAccesses);

    const auto via_next = collectNext(replay, kAccesses + 10);
    ASSERT_EQ(via_next.size(), kAccesses);
    for (std::size_t i = 0; i < kAccesses; ++i)
        ASSERT_TRUE(via_next[i] == (*buffer)[i]) << i;

    // reset() rewinds to the exact same stream; chunked reads agree.
    replay.reset();
    EXPECT_EQ(replay.remaining(), kAccesses);
    const auto via_chunk = collectChunked(replay, kAccesses + 10);
    ASSERT_EQ(via_chunk.size(), kAccesses);
    for (std::size_t i = 0; i < kAccesses; ++i)
        ASSERT_TRUE(via_chunk[i] == (*buffer)[i]) << i;

    EXPECT_THROW(
        trace::ReplayGenerator("x", trace::ReplayGenerator::Buffer{}),
        std::invalid_argument);
    EXPECT_THROW(
        trace::ReplayGenerator("x", trace::ReplayGenerator::Packed{}),
        std::invalid_argument);
}

/** A record with every field set. */
MemAccess
record(std::uint64_t addr, std::uint32_t gap, std::uint8_t size,
       trace::AccessType type)
{
    MemAccess a;
    a.addr = addr;
    a.data = 0x0123456789abcdefull ^ addr ^ gap;
    a.gap = gap;
    a.size = size;
    a.type = type;
    return a;
}

TEST(PackedStream, RoundTripsEveryFieldEdge)
{
    const std::uint64_t top = PackedStream::kAddrLimit;
    struct Case
    {
        MemAccess a;
        bool escapes;
    };
    std::vector<Case> cases;
    for (const auto type : {trace::AccessType::Read,
                            trace::AccessType::Write}) {
        for (const std::uint8_t size : {1, 2, 4, 8}) {
            cases.push_back({record(top - 8, 0, size, type), false});
            cases.push_back({record(0x40, 4095, size, type), false});
        }
        cases.push_back({record(top, 1, 8, type), true});
        cases.push_back({record(~std::uint64_t{7}, 1, 8, type), true});
        cases.push_back({record(0x40, 4096, 8, type), true});
        cases.push_back({record(0x40, UINT32_MAX, 8, type), true});
        // Outside the MemAccess contract (no trace reader accepts
        // these), still stored whole rather than mangled.
        for (const std::uint8_t size : {0, 3, 16})
            cases.push_back({record(0x40, 1, size, type), true});
    }
    MemAccess bad_type = record(0x40, 1, 8, trace::AccessType::Read);
    bad_type.type = static_cast<trace::AccessType>(2);
    cases.push_back({bad_type, true});

    std::vector<MemAccess> in;
    std::size_t escapes = 0;
    for (const Case &c : cases) {
        in.push_back(c.a);
        escapes += c.escapes ? 1 : 0;
        PackedStream one(1);
        one.append(&c.a, 1);
        EXPECT_EQ(one.bytes(),
                  packedBytes(1) + (c.escapes ? sizeof(MemAccess) : 0))
            << c.a.toString();
        MemAccess out;
        one.unpack(0, &out, 1);
        EXPECT_TRUE(out == c.a) << c.a.toString() << " -> "
                                << out.toString();
    }

    // Packed together, escaped records keep their place in the order.
    const PackedStream all(in);
    ASSERT_EQ(all.size(), in.size());
    EXPECT_EQ(all.bytes(),
              packedBytes(in.size()) + escapes * sizeof(MemAccess));
    std::vector<MemAccess> out(in.size());
    all.unpack(0, out.data(), out.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_TRUE(out[i] == in[i]) << i << ": " << in[i].toString();

    PackedStream full(1);
    full.append(in.data(), 1);
    EXPECT_THROW(full.append(in.data(), 1), std::length_error);
}

TEST(StreamSignature, DistinguishesEveryProfileAndSeed)
{
    std::vector<std::string> sigs;
    for (const auto &p : trace::specProfiles())
        sigs.push_back(trace::streamSignature(p));
    for (std::size_t i = 0; i < sigs.size(); ++i)
        for (std::size_t j = i + 1; j < sigs.size(); ++j)
            EXPECT_NE(sigs[i], sigs[j]);

    trace::StreamParams p = trace::specProfile("gcc");
    const std::string base = trace::streamSignature(p);
    EXPECT_EQ(base, trace::streamSignature(p));
    p.seed ^= 1;
    EXPECT_NE(base, trace::streamSignature(p));
    p = trace::specProfile("gcc");
    p.silentFraction += 1e-9;
    EXPECT_NE(base, trace::streamSignature(p));
}

StreamCache::GeneratorFactory
gccFactory()
{
    return [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
}

TEST(StreamCacheBehaviour, HitMissBypassAndBudget)
{
    StreamCache cache(64u << 20);
    EXPECT_TRUE(cache.enabled());

    constexpr std::uint64_t kAccesses = 10'000;
    auto first = cache.acquire("gcc", kAccesses, gccFactory());
    auto second = cache.acquire("gcc", kAccesses, gccFactory());
    const StreamCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, packedBytes(kAccesses));

    // Both must replay the byte-identical stream a live generator
    // produces.
    trace::MarkovStream live(trace::specProfile("gcc"));
    const auto want = collectNext(live, kAccesses);
    const auto got1 = collectNext(*first, kAccesses);
    const auto got2 = collectChunked(*second, kAccesses);
    ASSERT_EQ(got1.size(), want.size());
    ASSERT_EQ(got2.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got1[i] == want[i]) << i;
        ASSERT_TRUE(got2[i] == want[i]) << i;
    }
    EXPECT_EQ(first->name(), "gcc");

    // A request that alone exceeds the budget bypasses the cache and
    // returns the factory's live generator.
    StreamCache tiny(1024);
    auto bypassed = tiny.acquire("gcc", kAccesses, gccFactory());
    EXPECT_EQ(tiny.stats().bypasses, 1u);
    EXPECT_EQ(tiny.stats().entries, 0u);
    EXPECT_NE(dynamic_cast<trace::MarkovStream *>(bypassed.get()),
              nullptr);

    // Budget 0 disables caching entirely.
    StreamCache off(0);
    EXPECT_FALSE(off.enabled());
    auto uncached = off.acquire("gcc", kAccesses, gccFactory());
    EXPECT_EQ(off.stats().bypasses, 1u);
    EXPECT_NE(dynamic_cast<trace::MarkovStream *>(uncached.get()),
              nullptr);
}

TEST(StreamCacheBudget, EnvTakesOnlyDigitsThatFit)
{
    // C8T_STREAM_CACHE_MB is read once per process, so every value is
    // checked in a freshly executed child. strtoull used to read "-1"
    // as 2^64 - 1 MiB, and 2^44 MiB and up shifted to a 0-byte budget,
    // silently disabling memoization; both now warn and keep the
    // default, as --stream-cache rejects them.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto expectBudget = [](const std::string &mb, std::size_t want) {
        EXPECT_EXIT(
            {
                ::setenv("C8T_STREAM_CACHE_MB", mb.c_str(), 1);
                std::exit(StreamCache::defaultByteBudget() == want ? 0 : 1);
            },
            ::testing::ExitedWithCode(0), "")
            << "C8T_STREAM_CACHE_MB=" << mb;
    };
    constexpr std::size_t kDefault = std::size_t{512} << 20;
    for (const char *bad : {"-1", "-0", "+5", "5MB", "", "17592186044416",
                            "18446744073709551615"})
        expectBudget(bad, kDefault);
    expectBudget("0", 0);
    expectBudget("3", std::size_t{3} << 20);
    constexpr std::size_t kMaxMb = SIZE_MAX >> 20;
    expectBudget(std::to_string(kMaxMb), kMaxMb << 20);
}

TEST(StreamCacheBehaviour, EvictsLeastRecentlyUsedToFitBudget)
{
    constexpr std::uint64_t kAccesses = 1'000;
    constexpr std::size_t kStreamBytes = packedBytes(kAccesses);
    // Room for two streams, not three.
    StreamCache cache(2 * kStreamBytes);

    auto a = cache.acquire("a", kAccesses, gccFactory());
    auto b = cache.acquire("b", kAccesses, gccFactory());
    EXPECT_EQ(cache.stats().entries, 2u);

    // Touch "a" so "b" becomes the LRU victim when "c" arrives.
    a = cache.acquire("a", kAccesses, gccFactory());
    auto c = cache.acquire("c", kAccesses, gccFactory());
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // "a" must still hit; "b" was evicted and misses again.
    cache.acquire("a", kAccesses, gccFactory());
    EXPECT_EQ(cache.stats().hits, 2u);
    cache.acquire("b", kAccesses, gccFactory());
    EXPECT_EQ(cache.stats().misses, 4u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(StreamCacheBehaviour, ShorterBufferIsRegeneratedForLongerRequest)
{
    StreamCache cache(64u << 20);
    auto short_run = cache.acquire("gcc", 1'000, gccFactory());
    auto long_run = cache.acquire("gcc", 5'000, gccFactory());
    EXPECT_EQ(cache.stats().misses, 2u);

    // The regenerated buffer serves the longer window identically to
    // a live generator.
    trace::MarkovStream live(trace::specProfile("gcc"));
    const auto want = collectNext(live, 5'000);
    const auto got = collectNext(*long_run, 5'000);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(got[i] == want[i]) << i;

    // An exhausted stream satisfies any longer request: the replay
    // ends exactly where the live generator would.
    auto kernel_factory = []() -> std::unique_ptr<AccessGenerator> {
        return std::make_unique<trace::StreamCopyKernel>(100, 1);
    };
    auto k1 = cache.acquire("kernel", 1'000'000, kernel_factory);
    auto k2 = cache.acquire("kernel", 2'000'000, kernel_factory);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    trace::StreamCopyKernel live_kernel(100, 1);
    const auto kernel_want = collectNext(live_kernel, 2'000'000);
    const auto kernel_got = collectNext(*k2, 2'000'000);
    ASSERT_EQ(kernel_got.size(), kernel_want.size());

    EXPECT_THROW(cache.acquire("", 10, gccFactory()),
                 std::invalid_argument);
    EXPECT_THROW(cache.acquire("x", 10, nullptr), std::invalid_argument);
}

TEST(StreamCacheBehaviour, FailedFactoryLeavesNoEntry)
{
    // A workload that cannot be built (unknown profile, factory
    // returning null) must not leave a slot behind: a daemon client
    // could otherwise grow the cache without bound.
    StreamCache cache(64u << 20);
    const StreamCache::GeneratorFactory throwing =
        []() -> std::unique_ptr<AccessGenerator> {
        throw std::runtime_error("no such workload");
    };
    const StreamCache::GeneratorFactory null_factory =
        []() -> std::unique_ptr<AccessGenerator> { return nullptr; };
    for (int i = 0; i < 100; ++i) {
        const std::string key = "bogus" + std::to_string(i);
        EXPECT_THROW(cache.acquire(key, 1'000, throwing),
                     std::runtime_error);
        EXPECT_THROW(cache.acquire(key + "-null", 1'000, null_factory),
                     std::invalid_argument);
    }
    StreamCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.hits, 0u);

    // A failed key is free to succeed later.
    cache.acquire("bogus0", 1'000, gccFactory());
    s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.bytes, packedBytes(1'000));
}

TEST(StreamCacheBehaviour, TraceWithEscapedRecordsReplaysLikeTheReader)
{
    // A trace file may hold addresses and gaps too wide to pack; the
    // cached replay must still equal the live reader, across chunk
    // boundaries of the cache's generation window.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("c8t_escaped_" + std::to_string(::getpid()) + ".trc");
    constexpr std::size_t kRecords = 10'000;
    std::size_t wide = 0;
    {
        trace::MarkovStream gen(trace::specProfile("gcc"));
        trace::TraceWriter w(path.string());
        MemAccess a;
        for (std::size_t i = 0; i < kRecords && gen.next(a); ++i) {
            if (i % 97 == 0) {
                a.addr |= PackedStream::kAddrLimit << 4;
                ++wide;
            } else if (i % 89 == 0) {
                a.gap = PackedStream::kGapLimit +
                        static_cast<std::uint32_t>(i);
                ++wide;
            }
            w.write(a);
        }
        w.finish();
    }
    const auto reader = [&path]() -> std::unique_ptr<AccessGenerator> {
        return std::make_unique<trace::TraceReader>(path.string());
    };

    StreamCache cache(64u << 20);
    auto cached = cache.acquire("trace", kRecords, reader);
    EXPECT_EQ(cache.stats().bytes,
              packedBytes(kRecords) + wide * sizeof(MemAccess));
    const auto live = reader();
    const auto want = collectNext(*live, kRecords);
    const auto got = collectChunked(*cached, kRecords);
    std::filesystem::remove(path);
    ASSERT_EQ(want.size(), kRecords);
    ASSERT_EQ(got.size(), kRecords);
    for (std::size_t i = 0; i < kRecords; ++i)
        ASSERT_TRUE(got[i] == want[i]) << i << ": " << want[i].toString();
    EXPECT_EQ(cached->name(), live->name());
}

TEST(StreamCacheBehaviour, ConcurrentFirstAcquiresGenerateOnce)
{
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kAccesses = 10'000;
    StreamCache cache(64u << 20);
    std::atomic<unsigned> builds{0};
    const StreamCache::GeneratorFactory counted = [&builds] {
        ++builds;
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };

    std::vector<std::vector<MemAccess>> replays(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            auto gen = cache.acquire("gcc", kAccesses, counted);
            replays[t] = collectNext(*gen, kAccesses);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1u);
    const StreamCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, kThreads - 1);
    EXPECT_EQ(s.entries, 1u);
    ASSERT_EQ(replays[0].size(), kAccesses);
    for (unsigned t = 1; t < kThreads; ++t) {
        ASSERT_EQ(replays[t].size(), kAccesses) << t;
        for (std::size_t i = 0; i < kAccesses; ++i)
            ASSERT_TRUE(replays[t][i] == replays[0][i]) << t << " " << i;
    }
}

TEST(ChunkedRunner, IntervalHookFiresOnTheExactGrid)
{
    // An interval that divides neither the chunk size nor the window:
    // the chunked runner must still fire at exact multiples, exactly
    // as the historical per-access loop did.
    std::vector<core::ControllerConfig> cfgs(1);
    core::MultiSchemeRunner runner(cfgs);
    std::vector<std::uint64_t> fired;
    runner.setIntervalHook(777, [&fired](std::uint64_t at) {
        fired.push_back(at);
    });

    trace::MarkovStream gen(trace::specProfile("gcc"));
    const core::RunConfig rc{1'000, 10'000};
    runner.run(gen, rc);

    ASSERT_EQ(fired.size(), 10'000u / 777u);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], (i + 1) * 777u);
}

/** Jobs over a few profiles with stream keys set (the specSweepJobs
 *  shape, shrunk for test time). */
std::vector<core::SweepJob>
keyedJobs()
{
    const std::vector<core::WriteScheme> schemes = {
        core::WriteScheme::Rmw,
        core::WriteScheme::WriteGroupingReadBypass};
    std::vector<core::SweepJob> jobs;
    for (const char *name : {"bwaves", "mcf", "sphinx3"}) {
        const trace::StreamParams p = trace::specProfile(name);
        core::SweepJob job;
        job.makeGenerator = [p] {
            return std::make_unique<trace::MarkovStream>(p);
        };
        job.streamKey = trace::streamSignature(p);
        for (core::WriteScheme s : schemes) {
            core::ControllerConfig c;
            c.scheme = s;
            job.configs.push_back(c);
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SweepWithStreamCache, CacheOnOffBitIdenticalForAnyWorkerCount)
{
    const core::RunConfig rc{2'000, 10'000};
    StreamCache &cache = core::globalStreamCache();
    const std::size_t original_budget = cache.byteBudget();

    // Reference: cache disabled, serial.
    cache.setByteBudget(0);
    const auto reference =
        core::ParallelSweeper(1).run(keyedJobs(), rc, "id_off");

    cache.setByteBudget(512u << 20);
    cache.clear();
    for (unsigned workers : {1u, 2u, 8u}) {
        const auto cached =
            core::ParallelSweeper(workers).run(keyedJobs(), rc, "id_on");
        ASSERT_EQ(cached.size(), reference.size()) << workers;
        for (std::size_t p = 0; p < reference.size(); ++p) {
            ASSERT_EQ(cached[p].size(), reference[p].size());
            for (std::size_t s = 0; s < reference[p].size(); ++s) {
                EXPECT_TRUE(cached[p][s] == reference[p][s])
                    << workers << " workers, job " << p << ", scheme "
                    << reference[p][s].scheme;
            }
        }
    }
    // Every rerun after the first hits the cache instead of
    // regenerating.
    EXPECT_GE(cache.stats().hits, 6u);

    cache.setByteBudget(original_budget);
    cache.clear();
}

} // anonymous namespace

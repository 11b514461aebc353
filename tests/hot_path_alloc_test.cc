/**
 * @file
 * Zero-allocation guarantee for the access hot path.
 *
 * The figure sweeps run hundreds of millions of accesses; a single heap
 * allocation per access dominates the simulator's own run time. This
 * binary replaces the global allocator with a counting one and asserts
 * that a warmed-up controller services requests with *strictly zero*
 * heap traffic for every scheme, and that MarkovStream::next() only
 * allocates on the shadow map's amortized capacity doublings. It also
 * pins the cost of building a config-run: a controller's allocation
 * count does not grow with its size, and planner scratch exists only
 * where a plan is built (DESIGN.md §5). A job replaying a cached
 * stream pulls its chunks into its thread's buffer, allocating none.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "core/controller.hh"
#include "core/level_stack.hh"
#include "core/simulator.hh"
#include "core/stream_cache.hh"
#include "obs/event_ring.hh"
#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "trace/markov_stream.hh"
#include "trace/replay.hh"
#include "trace/spec_profiles.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocatedBytes{0};
/** Allocations of exactly g_watchSize bytes (0: none watched). */
std::atomic<std::size_t> g_watchSize{0};
std::atomic<std::uint64_t> g_watchHits{0};

} // anonymous namespace

// Counting global allocator. Only the test binary links this; the
// library under test goes through it for every new/delete. Every form
// is kept out of line, so a caller sees each new paired with its own
// delete. Inlined, the malloc() and free() inside would meet the
// caller's new and delete and read as mismatched pairs
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocatedBytes.fetch_add(size, std::memory_order_relaxed);
    if (size == g_watchSize.load(std::memory_order_relaxed))
        g_watchHits.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace c8t;
using core::CacheController;
using core::ControllerConfig;
using core::WriteScheme;

constexpr std::uint64_t kWarmup = 20'000;
constexpr std::uint64_t kMeasure = 100'000;

/** Pre-generate a stream so generator-side allocations cannot be
 *  confused with controller-side ones. */
std::vector<trace::MemAccess>
pregenerate(std::uint64_t n)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> out(n);
    for (auto &a : out)
        gen.next(a);
    return out;
}

TEST(HotPathAllocations, ControllerAccessPathIsAllocationFree)
{
    const auto stream = pregenerate(kWarmup + kMeasure);

    for (WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::Rmw, WriteScheme::LocalRmw,
          WriteScheme::WordGranular, WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        mem::FunctionalMemory memory;
        // Pre-size the word table beyond the run's footprint so misses
        // never trigger a rehash inside the measurement window.
        memory.reserve(1u << 20);

        ControllerConfig cfg;
        cfg.scheme = scheme;
        CacheController ctrl(cfg, memory);

        for (std::uint64_t i = 0; i < kWarmup; ++i)
            ctrl.access(stream[i]);

        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        for (std::uint64_t i = kWarmup; i < stream.size(); ++i)
            ctrl.access(stream[i]);
        const std::uint64_t delta =
            g_allocations.load(std::memory_order_relaxed) - before;

        EXPECT_EQ(delta, 0u)
            << toString(scheme) << ": " << delta
            << " heap allocations in " << kMeasure << " accesses";
    }
}

TEST(HotPathAllocations, EventRingRecordingIsAllocationFree)
{
    const auto stream = pregenerate(kWarmup + kMeasure);

    for (WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::Rmw, WriteScheme::LocalRmw,
          WriteScheme::WordGranular, WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        mem::FunctionalMemory memory;
        memory.reserve(1u << 20);

        ControllerConfig cfg;
        cfg.scheme = scheme;
        CacheController ctrl(cfg, memory);

        // Small capacity on purpose: the measurement window wraps the
        // ring thousands of times, so wrap-around handling is also
        // covered by the zero-allocation assertion.
        obs::EventRing ring(1024);
        ctrl.attachEventRing(&ring);

        for (std::uint64_t i = 0; i < kWarmup; ++i)
            ctrl.access(stream[i]);

        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        for (std::uint64_t i = kWarmup; i < stream.size(); ++i)
            ctrl.access(stream[i]);
        const std::uint64_t delta =
            g_allocations.load(std::memory_order_relaxed) - before;

        EXPECT_EQ(delta, 0u)
            << toString(scheme) << ": " << delta
            << " heap allocations in " << kMeasure
            << " accesses with the event ring attached";
        EXPECT_GT(ring.recorded(), 0u) << toString(scheme);
    }
}

TEST(HotPathAllocations, BatchedChunkPipelineIsAllocationFree)
{
    const auto stream = pregenerate(kWarmup + kMeasure);
    constexpr std::size_t kChunk = 4096;

    for (WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::Rmw,
          WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        mem::FunctionalMemory memory;
        memory.reserve(1u << 20);

        ControllerConfig cfg;
        cfg.scheme = scheme;
        CacheController ctrl(cfg, memory);

        // Drive the set-batched pipeline directly: plan each chunk,
        // then apply it. The first planReplayChunk() sizes the plan
        // scratch (set/tag/way/flags arrays and the per-set chains);
        // after this warm-up pass the pipeline must never touch the
        // heap again — the scratch is pre-sized and reused.
        auto feed = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; i += kChunk) {
                const std::size_t n = std::min(kChunk, end - i);
                const mem::ChunkPlan *plan =
                    ctrl.planReplayChunk(stream.data() + i, n);
                ASSERT_NE(plan, nullptr) << toString(scheme);
                ctrl.accessChunk(stream.data() + i, n, plan);
            }
        };
        feed(0, kWarmup);

        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        feed(kWarmup, stream.size());
        const std::uint64_t delta =
            g_allocations.load(std::memory_order_relaxed) - before;

        EXPECT_EQ(delta, 0u)
            << toString(scheme) << ": " << delta
            << " heap allocations in " << kMeasure
            << " batched accesses";
    }
}

TEST(HotPathAllocations, FusedPlanGroupIsAllocationFree)
{
    // A MultiSchemeRunner-shaped plan group: three schemes over one
    // shared, pre-sized memory. The first member plans each chunk and
    // applyPlanGroup() applies the plan to all three, staging each
    // miss fill once. The first chunk sizes the planner scratch; after
    // it the fused loop must never touch the heap.
    const auto stream = pregenerate(kWarmup + kMeasure);
    constexpr std::size_t kChunk = CacheController::kReplayChunkAccesses;
    mem::FunctionalMemory memory;
    memory.reserve(1u << 20);

    std::vector<std::unique_ptr<CacheController>> ctrls;
    std::vector<CacheController *> group;
    for (const WriteScheme scheme :
         {WriteScheme::Rmw, WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        ControllerConfig cfg;
        cfg.scheme = scheme;
        ctrls.push_back(std::make_unique<CacheController>(
            cfg, memory,
            ctrls.empty() ? core::MemoryRole::Owner
                          : core::MemoryRole::Follower));
        group.push_back(ctrls.back().get());
    }

    const auto feed = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; i += kChunk) {
            const std::size_t n = std::min(kChunk, end - i);
            const mem::ChunkPlan *plan =
                group.front()->planReplayChunk(stream.data() + i, n);
            ASSERT_NE(plan, nullptr);
            CacheController::applyPlanGroup(group, stream.data() + i, n,
                                            plan);
        }
    };
    feed(0, kChunk);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    feed(kChunk, stream.size());
    const std::uint64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(delta, 0u) << delta << " heap allocations in "
                         << stream.size() - kChunk
                         << " fused group accesses";
    for (const CacheController *c : group)
        EXPECT_EQ(c->requests(), stream.size());

    // The live groups run the same loop with a null plan, also over one
    // memory: a Random group, and a two-level group whose L1s each
    // fetch from an L2 of their own. Every member resolves each access
    // itself; after the first chunk neither may touch the heap.
    for (const bool two_level : {false, true}) {
        mem::FunctionalMemory live_memory;
        live_memory.reserve(1u << 20);
        std::vector<std::unique_ptr<core::LevelStack>> stacks;
        std::vector<CacheController *> tops;
        for (const WriteScheme scheme :
             {WriteScheme::Rmw, WriteScheme::WriteGrouping,
              WriteScheme::WriteGroupingReadBypass}) {
            ControllerConfig cfg;
            cfg.scheme = scheme;
            if (two_level)
                cfg.lowerLevels.emplace_back();
            else
                cfg.cache.replacement = mem::ReplKind::Random;
            stacks.push_back(std::make_unique<core::LevelStack>(
                cfg, live_memory,
                stacks.empty() ? core::MemoryRole::Owner
                               : core::MemoryRole::Follower));
            tops.push_back(&stacks.back()->top());
        }

        const auto live_feed = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; i += kChunk) {
                const std::size_t n = std::min(kChunk, end - i);
                ASSERT_EQ(tops.front()->planReplayChunk(stream.data() + i,
                                                        n),
                          nullptr);
                CacheController::applyPlanGroup(tops, stream.data() + i, n,
                                                nullptr);
            }
        };
        live_feed(0, kChunk);

        const std::uint64_t live_before =
            g_allocations.load(std::memory_order_relaxed);
        live_feed(kChunk, stream.size());
        const std::uint64_t live_delta =
            g_allocations.load(std::memory_order_relaxed) - live_before;

        const char *const kind = two_level ? "two-level" : "Random";
        EXPECT_EQ(live_delta, 0u)
            << live_delta << " heap allocations in "
            << stream.size() - kChunk << " live " << kind
            << " group accesses";
        for (const CacheController *c : tops)
            EXPECT_EQ(c->requests(), stream.size()) << kind;
    }
}

TEST(HotPathAllocations, DrainAndFlushStayAllocationFree)
{
    const auto stream = pregenerate(kWarmup);
    mem::FunctionalMemory memory;
    memory.reserve(1u << 20);
    ControllerConfig cfg;
    cfg.scheme = WriteScheme::WriteGroupingReadBypass;
    CacheController ctrl(cfg, memory);
    for (const auto &a : stream)
        ctrl.access(a);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    ctrl.drain();
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(HotPathAllocations, MarkovStreamNextIsAmortizedAllocationFree)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    trace::MemAccess a;
    // Let the shadow map grow to the steady-state working set first.
    for (std::uint64_t i = 0; i < 200'000; ++i)
        gen.next(a);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kMeasure; ++i)
        gen.next(a);
    const std::uint64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;

    // The flat shadow map may still double capacity a handful of times
    // as the footprint expands; per-access node allocations (the old
    // unordered_map behaviour, one per first-touch write) would show up
    // as tens of thousands.
    EXPECT_LE(delta, 8u) << delta << " allocations in " << kMeasure
                         << " generated accesses";
}

TEST(HotPathAllocations, MarkovStreamFillChunkIsAmortizedAllocationFree)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> chunk(4096);
    // Warm the shadow map to the steady-state working set first.
    for (std::uint64_t i = 0; i < 200'000; i += chunk.size())
        gen.fillChunk(chunk.data(), chunk.size());

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < kMeasure; i += chunk.size())
        gen.fillChunk(chunk.data(), chunk.size());
    const std::uint64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;

    // Same budget as next(): only the shadow map's amortized capacity
    // doublings may allocate; the chunked path adds nothing.
    EXPECT_LE(delta, 8u) << delta << " allocations in " << kMeasure
                         << " chunk-generated accesses";
}

TEST(HotPathAllocations, ProfilingAndMetricsRecordingIsAllocationFree)
{
    // The phase profiler and metrics registry sit on the per-chunk hot
    // path; with recording ENABLED they must still be heap-silent —
    // fixed arrays only, no string building, no map nodes.
    obs::prof::setEnabled(true);
    obs::prof::takeThreadTimes();
    obs::Histogram h;
    obs::Metrics &m = obs::globalMetrics();
    // Warm everything once: thread-local state, the leaked registry.
    {
        obs::prof::ScopedPhase warm(obs::prof::Phase::Replay);
        h.record(1);
        m.recordChunkReplayNs(1);
    }
    obs::prof::takeThreadTimes();

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        obs::prof::ScopedPhase outer(obs::prof::Phase::Replay);
        {
            obs::prof::ScopedPhase inner(obs::prof::Phase::Plan);
            h.record(i * 37);
        }
        m.recordChunkReplayNs(i * 91);
        m.recordJobWallNs(i * 13);
    }
    m.addPhaseTimes(obs::prof::takeThreadTimes());
    const std::uint64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(delta, 0u)
        << delta << " heap allocations in 10000 profiled scopes";

    obs::prof::setEnabled(false);
    m.reset();
}

TEST(HotPathAllocations, ReplayGeneratorChunkedReplayIsAllocationFree)
{
    auto buffer = std::make_shared<std::vector<trace::MemAccess>>(
        pregenerate(kMeasure));
    trace::ReplayGenerator replay("gcc", buffer);
    std::vector<trace::MemAccess> chunk(4096);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    // Replaying a cached stream is a pure unpack loop: strictly zero
    // heap traffic, including the reset between passes.
    for (int pass = 0; pass < 3; ++pass) {
        while (replay.fillChunk(chunk.data(), chunk.size()) > 0) {
        }
        replay.reset();
    }
    const std::uint64_t delta =
        g_allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(delta, 0u)
        << delta << " heap allocations replaying " << kMeasure
        << " cached accesses three times";
}

TEST(HotPathAllocations, SecondJobOnAThreadAllocatesNoChunk)
{
    // MultiSchemeRunner pulls every chunk into one buffer per thread.
    // On a fresh thread the first job allocates that buffer; a second
    // job there, replaying a stream-cache hit, allocates no chunk.
    constexpr std::size_t kChunkBytes =
        core::MultiSchemeRunner::kChunkAccesses * sizeof(trace::MemAccess);
    const core::RunConfig rc{2'000, 20'000};
    core::StreamCache cache(64u << 20);
    const core::StreamCache::GeneratorFactory gcc = [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    const auto job = [&] {
        auto gen = cache.acquire(
            "gcc", rc.warmupAccesses + rc.measureAccesses, gcc);
        core::MultiSchemeRunner runner({ControllerConfig{}});
        g_watchHits.store(0);
        g_watchSize.store(kChunkBytes);
        runner.run(*gen, rc);
        g_watchSize.store(0);
        return g_watchHits.load();
    };
    std::uint64_t first = 0;
    std::uint64_t second = 0;
    std::thread([&] {
        first = job();
        second = job();
    }).join();

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(first, 1u) << "the thread's first job allocates its buffer";
    EXPECT_EQ(second, 0u) << second
                          << " chunk allocations in a second job";
}

TEST(RunConstruction, ControllerAllocationCountDoesNotGrowWithSize)
{
    // One data-array allocation whatever the row count: a 16 KB and a
    // 128 KB cache (4w/32B: 128 and 1024 rows) cost the same number of
    // heap requests to build.
    mem::FunctionalMemory memory;
    const auto allocations_to_build = [&](std::uint64_t size_kb) {
        ControllerConfig cfg;
        cfg.cache = mem::CacheConfig{size_kb * 1024, 4, 32};
        cfg.scheme = WriteScheme::Rmw;
        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        const CacheController ctrl(cfg, memory);
        return g_allocations.load(std::memory_order_relaxed) - before;
    };
    EXPECT_EQ(allocations_to_build(16), allocations_to_build(128));
}

TEST(RunConstruction, PlanFollowersAllocateNoPlannerScratch)
{
    // Construction reserves no planner scratch: a plan-eligible (LRU)
    // controller costs the heap exactly what a Random one, which never
    // plans, does.
    mem::FunctionalMemory memory;
    const auto bytes_to_build = [&](mem::ReplKind repl) {
        ControllerConfig cfg;
        cfg.cache.replacement = repl;
        const std::uint64_t before =
            g_allocatedBytes.load(std::memory_order_relaxed);
        const CacheController ctrl(cfg, memory);
        return g_allocatedBytes.load(std::memory_order_relaxed) - before;
    };
    EXPECT_EQ(bytes_to_build(mem::ReplKind::Lru),
              bytes_to_build(mem::ReplKind::Random));

    // MultiSchemeRunner's plan sharing: the leader plans each chunk and
    // the same-shape followers apply its plan. The leader's first plan
    // sizes its scratch; the followers never allocate any.
    const auto stream = pregenerate(kWarmup);
    const WriteScheme schemes[] = {
        WriteScheme::SixTDirect, WriteScheme::Rmw,
        WriteScheme::WriteGrouping, WriteScheme::WriteGroupingReadBypass};
    constexpr std::size_t n = std::size(schemes);
    std::vector<std::unique_ptr<mem::FunctionalMemory>> memories;
    std::vector<std::unique_ptr<CacheController>> ctrls;
    for (const WriteScheme scheme : schemes) {
        memories.push_back(std::make_unique<mem::FunctionalMemory>());
        // Pages pre-sized, so any allocation below is the replay's own.
        memories.back()->reserve(1u << 20);
        ControllerConfig cfg;
        cfg.scheme = scheme;
        ctrls.push_back(
            std::make_unique<CacheController>(cfg, *memories.back()));
    }

    std::uint64_t planned = 0;
    std::uint64_t applied[n] = {};
    constexpr std::size_t kChunk = CacheController::kReplayChunkAccesses;
    for (std::size_t b = 0; b < stream.size(); b += kChunk) {
        const std::size_t got = std::min(kChunk, stream.size() - b);
        std::uint64_t before =
            g_allocatedBytes.load(std::memory_order_relaxed);
        const mem::ChunkPlan *plan =
            ctrls[0]->planReplayChunk(stream.data() + b, got);
        ASSERT_NE(plan, nullptr);
        planned += g_allocatedBytes.load(std::memory_order_relaxed) - before;
        for (std::size_t i = 0; i < n; ++i) {
            before = g_allocatedBytes.load(std::memory_order_relaxed);
            ctrls[i]->accessChunk(stream.data() + b, got, plan);
            applied[i] +=
                g_allocatedBytes.load(std::memory_order_relaxed) - before;
        }
    }

    EXPECT_GT(planned, 0u) << "the leader's first plan sizes its scratch";
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(applied[i], 0u)
            << toString(schemes[i]) << " allocated " << applied[i]
            << " bytes applying the leader's plans";
    }
}

} // anonymous namespace

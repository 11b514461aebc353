/**
 * @file
 * Tests for the two-level hierarchy seen from the L2's side
 * (DESIGN.md §14): construction guards, fill/refetch behaviour,
 * write-back semantics and the guarantee that a second level never
 * changes architectural values. The inclusion invariant and the
 * event-ring reconciliation live in tests/hierarchy_test.cc.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/controller.hh"
#include "core/level_stack.hh"
#include "obs/event_ring.hh"
#include "trace/markov_stream.hh"
#include "trace/rng.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::CacheController;
using core::ControllerConfig;
using core::LevelConfig;
using core::LevelStack;
using core::WriteScheme;

trace::MemAccess
readAcc(std::uint64_t addr, std::uint32_t gap = 0)
{
    trace::MemAccess a;
    a.addr = addr;
    a.gap = gap;
    return a;
}

trace::MemAccess
writeAcc(std::uint64_t addr, std::uint64_t data)
{
    trace::MemAccess a;
    a.addr = addr;
    a.type = trace::AccessType::Write;
    a.data = data;
    return a;
}

/** Default 64K/4w/32B L1 over the default 256K/8w/32B L2. */
ControllerConfig
hierConfig()
{
    ControllerConfig cfg;
    cfg.lowerLevels.push_back(LevelConfig{});
    return cfg;
}

/** Span between addresses mapping to the same L1 set (default L1:
 *  64 KB / 4-way / 32 B = 512 sets). */
constexpr std::uint64_t kL1SetSpan = 32 * 512;

TEST(L2, SingleLevelStackHasDepthOne)
{
    mem::FunctionalMemory memory;
    LevelStack stack(ControllerConfig{}, memory);
    EXPECT_EQ(stack.depth(), 1u);
    EXPECT_EQ(&stack.top(), &stack.level(0));
}

TEST(L2, RejectsMismatchedBlockSize)
{
    mem::FunctionalMemory memory;
    ControllerConfig cfg = hierConfig();
    cfg.lowerLevels[0].cache.blockBytes = 64; // L1 uses 32
    EXPECT_THROW(LevelStack(cfg, memory), std::invalid_argument);
}

TEST(L2, RejectsLowerLevelSmallerThanUpper)
{
    mem::FunctionalMemory memory;
    ControllerConfig cfg = hierConfig();
    cfg.lowerLevels[0].cache.sizeBytes = 32 * 1024; // L1 is 64 K
    EXPECT_THROW(LevelStack(cfg, memory), std::invalid_argument);
}

TEST(L2, ColdMissFillsBothLevels)
{
    mem::FunctionalMemory memory;
    LevelStack stack(hierConfig(), memory);
    stack.access(readAcc(0x1000));
    ASSERT_EQ(stack.depth(), 2u);
    EXPECT_EQ(stack.level(1).tags().misses(), 1u);
    EXPECT_EQ(stack.level(1).tags().hits(), 0u);
    EXPECT_TRUE(stack.level(1).tags().probe(0x1000).hit);
    EXPECT_TRUE(stack.top().tags().probe(0x1000).hit);
}

TEST(L2, VictimRefetchHitsL2)
{
    // Evict a block from the small L1, then re-read it: the refetch
    // must hit the (larger) L2 and pay far less than a memory miss.
    mem::FunctionalMemory memory;
    LevelStack stack(hierConfig(), memory);

    const std::uint64_t cold_latency =
        stack.access(readAcc(0x1000)).latencyCycles;
    for (std::uint64_t i = 1; i <= 4; ++i)
        stack.access(readAcc(0x1000 + i * kL1SetSpan, 100));
    ASSERT_FALSE(stack.top().tags().probe(0x1000).hit);

    const std::uint64_t l2_hits_before = stack.level(1).tags().hits();
    const core::AccessOutcome out = stack.access(readAcc(0x1000, 1000));
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(stack.level(1).tags().hits(), l2_hits_before + 1);
    // An L2 hit services the refetch without the memory round trip the
    // cold miss paid.
    EXPECT_LT(out.latencyCycles, cold_latency);
}

TEST(L2, MemoryMissStillPaysFullPenalty)
{
    mem::FunctionalMemory memory;
    ControllerConfig cfg = hierConfig();
    LevelStack stack(cfg, memory);
    const core::AccessOutcome out = stack.access(readAcc(0x9000));
    // A double miss pays at least the L2's memory penalty.
    EXPECT_GE(out.latencyCycles,
              cfg.lowerLevels[0].latency.missPenaltyCycles);
}

TEST(L2, NeverChangesValues)
{
    // The same stream with and without the L2 returns identical data:
    // the hierarchy shapes timing and energy, never architecture.
    for (WriteScheme s :
         {WriteScheme::Rmw, WriteScheme::WriteGroupingReadBypass}) {
        trace::MarkovStream gen_a(trace::specProfile("mcf"));
        trace::MarkovStream gen_b(trace::specProfile("mcf"));

        mem::FunctionalMemory mem_a, mem_b;
        ControllerConfig plain;
        plain.scheme = s;
        ControllerConfig with_l2 = hierConfig();
        with_l2.scheme = s;
        LevelStack a(plain, mem_a), b(with_l2, mem_b);

        trace::MemAccess acc_a, acc_b;
        for (int i = 0; i < 30'000; ++i) {
            ASSERT_TRUE(gen_a.next(acc_a));
            ASSERT_TRUE(gen_b.next(acc_b));
            ASSERT_EQ(acc_a, acc_b);
            const auto out_a = a.access(acc_a);
            const auto out_b = b.access(acc_b);
            if (acc_a.isRead())
                ASSERT_EQ(out_a.data, out_b.data) << "access " << i;
        }
        // End state agrees architecturally, word by spot-checked word.
        a.drain();
        b.drain();
        for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 8) {
            ASSERT_EQ(a.peekWord(addr), b.peekWord(addr))
                << "addr " << addr;
        }
    }
}

TEST(L2, ReducesMeanReadLatencyOnRefetchHeavyStream)
{
    auto run = [](bool with_l2) {
        trace::MarkovStream gen(trace::specProfile("mcf"));
        mem::FunctionalMemory memory;
        LevelStack stack(with_l2 ? hierConfig() : ControllerConfig{},
                         memory);
        trace::MemAccess a;
        for (int i = 0; i < 50'000; ++i) {
            gen.next(a);
            stack.access(a);
        }
        return stack.top().readLatency().mean();
    };
    EXPECT_LT(run(true), run(false));
}

TEST(L2, DirtyVictimsWriteBackIntoL2NotMemory)
{
    mem::FunctionalMemory memory;
    LevelStack stack(hierConfig(), memory);
    stack.access(writeAcc(0x2000, 0x77)); // dirty in L1 (and L2-filled)
    for (std::uint64_t i = 1; i <= 4; ++i)
        stack.access(readAcc(0x2000 + i * kL1SetSpan));
    ASSERT_FALSE(stack.top().tags().probe(0x2000).hit);

    // The victim landed in the L2 (write-back, not write-through):
    // the hierarchy is current, the functional memory still stale.
    EXPECT_TRUE(stack.level(1).tags().probe(0x2000).hit);
    EXPECT_EQ(stack.peekWord(0x2000), 0x77u);
    EXPECT_EQ(memory.readWord(0x2000), 0u);

    // The backdoor flush makes memory architecturally current.
    stack.drain();
    stack.flushToMemory();
    EXPECT_EQ(memory.readWord(0x2000), 0x77u);
}

TEST(L2, ResetStatsClearsAllLevels)
{
    mem::FunctionalMemory memory;
    LevelStack stack(hierConfig(), memory);
    stack.access(readAcc(0x1000));
    stack.resetStats();
    EXPECT_EQ(stack.top().tags().misses(), 0u);
    EXPECT_EQ(stack.level(1).tags().misses(), 0u);
}

// ---------------------------------------------------------------------
// The burst entry points against the per-word sequence they replaced:
// fetchBlock was one read access() plus an eight-byte peekWord() per
// word, acceptBlockWriteback one write access() per word.
// ---------------------------------------------------------------------

/** One L2 as a LevelStack builds it (eviction hook installed, so the
 *  hierarchy counters register), with its own memory and event ring. */
struct L2Twin
{
    mem::FunctionalMemory memory;
    obs::EventRing ring{256};
    CacheController ctrl;

    explicit L2Twin(const ControllerConfig &cfg) : ctrl(cfg, memory)
    {
        ctrl.setEvictionHook(
            [](mem::Addr, std::uint8_t *, std::uint32_t) { return false; });
        ctrl.attachEventRing(&ring);
    }

    std::string dump()
    {
        std::ostringstream os;
        ctrl.dumpStats(os);
        return os.str();
    }
};

/** The pre-burst fetch: one read access, then the block word by word
 *  through peekWord(). */
std::uint64_t
perWordFetch(CacheController &ctrl, mem::Addr block, std::uint8_t *dst,
             std::uint32_t len)
{
    const std::uint64_t latency =
        ctrl.access(readAcc(block)).latencyCycles;
    for (std::uint32_t off = 0; off < len; off += 8) {
        const std::uint64_t v = ctrl.peekWord(block + off);
        for (std::uint32_t i = 0; i < 8; ++i)
            dst[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return latency;
}

/** The pre-burst write-back: one eight-byte write access per word. */
void
perWordWriteback(CacheController &ctrl, mem::Addr block,
                 const std::uint8_t *src, std::uint32_t len)
{
    for (std::uint32_t off = 0; off < len; off += 8) {
        std::uint64_t v = 0;
        for (std::uint32_t i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(src[off + i]) << (8 * i);
        ctrl.access(writeAcc(block + off, v));
    }
}

/** True when @p ctrl's Set-Buffer holds @p block's set dirty: the
 *  buffered image is fresher than the array row. */
bool
dirtyBuffered(const CacheController &ctrl, mem::Addr block)
{
    const core::TagBuffer *tb = ctrl.tagBuffer();
    if (!tb)
        return false;
    const std::uint32_t set = ctrl.tags().layout().setOf(block);
    for (std::uint32_t e = 0; e < tb->entries(); ++e) {
        if (tb->entryValid(e) && tb->entrySet(e) == set && tb->dirty(e))
            return true;
    }
    return false;
}

TEST(L2Bursts, MatchThePerWordOracle)
{
    constexpr std::uint32_t kBlock = 32;
    for (const WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::WordGranular,
          WriteScheme::Rmw, WriteScheme::LocalRmw,
          WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        for (const mem::ReplKind repl :
             {mem::ReplKind::Lru, mem::ReplKind::TreePlru,
              mem::ReplKind::Fifo, mem::ReplKind::Random}) {
            SCOPED_TRACE(std::string(core::toString(scheme)) + "/" +
                         mem::toString(repl));
            // A 4 KB / 4-way L2 over a 16 KB footprint: fetches and
            // write-backs miss, evict and refill constantly.
            ControllerConfig cfg;
            cfg.cache = mem::CacheConfig{4 * 1024, 4, kBlock, repl};
            cfg.scheme = scheme;
            L2Twin burst(cfg), oracle(cfg);

            trace::Rng rng(0x5eed + static_cast<int>(scheme) * 16 +
                           static_cast<int>(repl));
            std::uint64_t fresher_set_fetches = 0;
            for (int op = 0; op < 4000; ++op) {
                const mem::Addr block = rng.below(512) * kBlock;
                switch (rng.below(4)) {
                  case 0: {
                    if (dirtyBuffered(burst.ctrl, block))
                        ++fresher_set_fetches;
                    std::uint8_t got[kBlock], want[kBlock];
                    const std::uint64_t lat =
                        burst.ctrl.fetchBlock(block, got, kBlock);
                    ASSERT_EQ(lat, perWordFetch(oracle.ctrl, block, want,
                                                kBlock))
                        << "op " << op;
                    ASSERT_EQ(std::memcmp(got, want, kBlock), 0)
                        << "op " << op;
                    break;
                  }
                  case 1: {
                    std::uint8_t bytes[kBlock];
                    for (std::uint8_t &b : bytes)
                        b = static_cast<std::uint8_t>(rng.below(4));
                    burst.ctrl.acceptBlockWriteback(block, bytes, kBlock);
                    perWordWriteback(oracle.ctrl, block, bytes, kBlock);
                    break;
                  }
                  default: {
                    // Plain requests between the bursts: partial
                    // writes leave buffered sets dirty (a Set-Buffer
                    // fresher than its array row) for the next fetch.
                    trace::MemAccess a = readAcc(block + rng.below(4) * 8);
                    if (rng.below(3) != 0) {
                        a.type = trace::AccessType::Write;
                        a.size = static_cast<std::uint8_t>(
                            1u << rng.below(4));
                        a.data = rng.next();
                    }
                    const core::AccessOutcome x = burst.ctrl.access(a);
                    const core::AccessOutcome y = oracle.ctrl.access(a);
                    ASSERT_EQ(x.data, y.data) << "op " << op;
                    ASSERT_EQ(x.latencyCycles, y.latencyCycles)
                        << "op " << op;
                    break;
                  }
                }
            }
            if (core::schemeTraits(scheme).needsGroupingBuffer) {
                EXPECT_GT(fresher_set_fetches, 0u);
            }

            EXPECT_EQ(burst.dump(), oracle.dump());
            EXPECT_EQ(burst.ring.typeCounts(), oracle.ring.typeCounts());
            EXPECT_EQ(burst.ring.recorded(), oracle.ring.recorded());
            EXPECT_EQ(burst.ctrl.dynamicEnergy(),
                      oracle.ctrl.dynamicEnergy());
            // Same architectural end state, word by word.
            for (mem::Addr addr = 0; addr < 512 * kBlock; addr += 8) {
                ASSERT_EQ(burst.ctrl.peekWord(addr),
                          oracle.ctrl.peekWord(addr))
                    << "addr " << addr;
            }
        }
    }
}

} // anonymous namespace

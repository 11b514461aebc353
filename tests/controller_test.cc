/**
 * @file
 * Unit tests for the cache controller: exact demand-access accounting
 * per scheme on hand-built streams, Algorithm 1 behaviour, and data
 * correctness of every path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.hh"
#include "trace/rng.hh"

namespace
{

using namespace c8t::core;
using c8t::mem::FunctionalMemory;
using c8t::trace::AccessType;
using c8t::trace::MemAccess;

MemAccess
readAcc(std::uint64_t addr)
{
    MemAccess a;
    a.addr = addr;
    return a;
}

MemAccess
writeAcc(std::uint64_t addr, std::uint64_t data)
{
    MemAccess a;
    a.addr = addr;
    a.type = AccessType::Write;
    a.data = data;
    return a;
}

class ControllerTest : public ::testing::Test
{
  protected:
    CacheController
    make(WriteScheme scheme, std::uint32_t buffer_entries = 1)
    {
        ControllerConfig cfg;
        cfg.scheme = scheme;
        cfg.bufferEntries = buffer_entries;
        return CacheController(cfg, mem);
    }

    FunctionalMemory mem;

    // Three addresses in three distinct sets of the baseline cache.
    static constexpr std::uint64_t addrA = 0x10000;
    static constexpr std::uint64_t addrB = 0x10040;
    static constexpr std::uint64_t addrC = 0x10080;
};

TEST_F(ControllerTest, RejectsZeroBufferEntries)
{
    ControllerConfig cfg;
    cfg.bufferEntries = 0;
    EXPECT_THROW(CacheController(cfg, mem), std::invalid_argument);
}

TEST_F(ControllerTest, SixTReadWriteCosts)
{
    auto c = make(WriteScheme::SixTDirect);
    c.access(readAcc(addrA));  // miss + 1 demand read
    c.access(writeAcc(addrA, 1)); // 1 demand write
    EXPECT_EQ(c.demandRowReads(), 1u);
    EXPECT_EQ(c.demandRowWrites(), 1u);
    EXPECT_EQ(c.fillRowReads(), 1u);
    EXPECT_EQ(c.fillRowWrites(), 1u);
}

TEST_F(ControllerTest, RmwWriteCostsReadPlusWrite)
{
    auto c = make(WriteScheme::Rmw);
    c.access(readAcc(addrA)); // warm the block
    c.resetStats();

    c.access(writeAcc(addrA, 1));
    EXPECT_EQ(c.demandRowReads(), 1u);
    EXPECT_EQ(c.demandRowWrites(), 1u);

    c.access(writeAcc(addrA, 2));
    EXPECT_EQ(c.demandRowReads(), 2u);
    EXPECT_EQ(c.demandRowWrites(), 2u);
}

TEST_F(ControllerTest, RmwAccessInflationMatchesWriteShare)
{
    // The paper's claim in miniature: RMW total = reads + 2*writes.
    auto c = make(WriteScheme::Rmw);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    for (int i = 0; i < 10; ++i)
        c.access(readAcc(addrA));
    for (int i = 0; i < 5; ++i)
        c.access(writeAcc(addrB, i + 100));
    EXPECT_EQ(c.demandAccesses(), 10u + 2u * 5u);
}

TEST_F(ControllerTest, WgGroupsConsecutiveSameSetWrites)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.resetStats();

    c.access(writeAcc(addrA, 1)); // opens the group: 1 read
    EXPECT_EQ(c.demandRowReads(), 1u);
    EXPECT_EQ(c.demandRowWrites(), 0u);

    c.access(writeAcc(addrA, 2)); // grouped: free
    c.access(writeAcc(addrA + 8, 3)); // same block, other word: free
    EXPECT_EQ(c.demandAccesses(), 1u);
    EXPECT_EQ(c.groupedWrites(), 2u);
}

TEST_F(ControllerTest, WgWriteToNewSetEndsGroup)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    c.access(writeAcc(addrA, 1)); // group A: 1 read
    c.access(writeAcc(addrB, 2)); // ends A (dirty): 1 write + 1 read
    EXPECT_EQ(c.demandRowReads(), 2u);
    EXPECT_EQ(c.demandRowWrites(), 1u);
    EXPECT_EQ(c.groupWritebacks(), 1u);
}

TEST_F(ControllerTest, WgSilentGroupElidesWriteback)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    // Memory is zeroed, so writing 0 is silent.
    c.access(writeAcc(addrA, 0));
    EXPECT_EQ(c.silentWritesDetected(), 1u);

    c.access(writeAcc(addrB, 2)); // ends A's group — clean, elided
    EXPECT_EQ(c.silentGroupsElided(), 1u);
    EXPECT_EQ(c.demandRowWrites(), 0u);
    EXPECT_EQ(c.demandRowReads(), 2u); // the two group-opening reads
}

TEST_F(ControllerTest, WgSilentDetectionCanBeDisabled)
{
    ControllerConfig cfg;
    cfg.scheme = WriteScheme::WriteGrouping;
    cfg.silentDetection = false;
    CacheController c(cfg, mem);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    c.access(writeAcc(addrA, 0)); // silent, but detection is off
    c.access(writeAcc(addrB, 2));
    EXPECT_EQ(c.silentWritesDetected(), 0u);
    EXPECT_EQ(c.silentGroupsElided(), 0u);
    EXPECT_EQ(c.demandRowWrites(), 1u); // write-back not elided
}

TEST_F(ControllerTest, WgReadHitForcesPrematureWriteback)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.resetStats();

    c.access(writeAcc(addrA, 1)); // 1 read (group open)
    const AccessOutcome out = c.access(readAcc(addrA));
    EXPECT_TRUE(out.tagBufferHit);
    EXPECT_FALSE(out.bypassed); // plain WG never bypasses
    EXPECT_EQ(c.prematureWritebacks(), 1u);
    EXPECT_EQ(c.demandRowReads(), 2u);
    EXPECT_EQ(c.demandRowWrites(), 1u);
}

TEST_F(ControllerTest, WgCleanReadHitSkipsWriteback)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.resetStats();

    c.access(writeAcc(addrA, 0)); // silent: dirty stays clear
    c.access(readAcc(addrA));     // tag hit, dirty clear: just a read
    EXPECT_EQ(c.prematureWritebacks(), 0u);
    EXPECT_EQ(c.demandRowWrites(), 0u);
    EXPECT_EQ(c.demandRowReads(), 2u);
}

TEST_F(ControllerTest, WgReadToOtherSetLeavesGroupOpen)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    c.access(writeAcc(addrA, 1)); // group A open
    c.access(readAcc(addrB));     // different set: plain read
    c.access(writeAcc(addrA, 2)); // still grouped!
    EXPECT_EQ(c.groupedWrites(), 1u);
    EXPECT_EQ(c.demandRowReads(), 2u);
    EXPECT_EQ(c.demandRowWrites(), 0u);
}

TEST_F(ControllerTest, WgRbBypassesReadHits)
{
    auto c = make(WriteScheme::WriteGroupingReadBypass);
    c.access(readAcc(addrA));
    c.resetStats();

    c.access(writeAcc(addrA, 0xabcd));
    const AccessOutcome out = c.access(readAcc(addrA));
    EXPECT_TRUE(out.bypassed);
    EXPECT_EQ(out.data, 0xabcdu);
    EXPECT_EQ(c.bypassedReads(), 1u);
    EXPECT_EQ(c.prematureWritebacks(), 0u);
    EXPECT_EQ(c.demandRowReads(), 1u); // only the group-opening read
    EXPECT_EQ(c.demandRowWrites(), 0u);
}

TEST_F(ControllerTest, WgRbBypassLatencyIsSetBufferLatency)
{
    auto c = make(WriteScheme::WriteGroupingReadBypass);
    c.access(readAcc(addrA));
    c.access(writeAcc(addrA, 7));
    const AccessOutcome out = c.access(readAcc(addrA));
    ASSERT_TRUE(out.bypassed);
    EXPECT_EQ(out.latencyCycles, c.config().latency.setBufferCycles);
}

TEST_F(ControllerTest, ReadsReturnWrittenData)
{
    for (WriteScheme s : {WriteScheme::SixTDirect, WriteScheme::Rmw,
                          WriteScheme::LocalRmw,
                          WriteScheme::WordGranular,
                          WriteScheme::WriteGrouping,
                          WriteScheme::WriteGroupingReadBypass}) {
        FunctionalMemory m;
        ControllerConfig cfg;
        cfg.scheme = s;
        CacheController c(cfg, m);

        c.access(writeAcc(addrA, 0x1122334455667788ull));
        const AccessOutcome out = c.access(readAcc(addrA));
        EXPECT_EQ(out.data, 0x1122334455667788ull) << toString(s);
    }
}

TEST_F(ControllerTest, SubWordWritesMerge)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(writeAcc(addrA, 0x1111111111111111ull));
    MemAccess half = writeAcc(addrA + 4, 0xffffffffull);
    half.size = 4;
    c.access(half);
    const AccessOutcome out = c.access(readAcc(addrA));
    EXPECT_EQ(out.data, 0xffffffff11111111ull);
}

TEST_F(ControllerTest, EvictionWritesVictimToMemory)
{
    auto c = make(WriteScheme::Rmw);
    const std::uint64_t set_span = 32 * 512;
    c.access(writeAcc(addrA, 0xaaaa)); // dirty block in way 0

    // Fill the set past associativity to force the dirty eviction.
    for (std::uint64_t i = 1; i <= 4; ++i)
        c.access(readAcc(addrA + i * set_span));
    EXPECT_EQ(mem.readWord(addrA), 0xaaaau);

    // And reading it again refills from memory with the right data.
    const AccessOutcome out = c.access(readAcc(addrA));
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.data, 0xaaaau);
}

TEST_F(ControllerTest, WgMissToBufferedSetFlushesGroup)
{
    auto c = make(WriteScheme::WriteGrouping);
    const std::uint64_t set_span = 32 * 512;
    c.access(writeAcc(addrA, 0xbb)); // group on A's set (after fill)
    c.resetStats();

    // A read to a different block in the same set that misses must
    // flush the buffered group before the fill.
    const AccessOutcome out = c.access(readAcc(addrA + set_span));
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.tagBufferHit);
    EXPECT_EQ(c.demandRowWrites(), 1u); // the forced flush
    // The grouped data survived in the array.
    EXPECT_EQ(c.peekWord(addrA), 0xbbu);
}

TEST_F(ControllerTest, DrainWritesDirtyEntries)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(writeAcc(addrA, 0x77));
    // The array row is still stale: the data lives in the Set-Buffer.
    const std::uint32_t set = c.tags().layout().setOf(addrA);
    const std::uint32_t way = c.tags().probe(addrA).way;
    EXPECT_EQ(c.array().peekRow(set)[way * 32], 0x00);
    c.drain();
    EXPECT_EQ(c.drainWrites(), 1u);
    EXPECT_EQ(c.peekWord(addrA), 0x77u);
    c.drain(); // second drain is a no-op
    EXPECT_EQ(c.drainWrites(), 1u);
}

TEST_F(ControllerTest, FlushCacheToMemoryPublishesDirtyLines)
{
    auto c = make(WriteScheme::WriteGroupingReadBypass);
    c.access(writeAcc(addrA, 0x99));
    c.access(writeAcc(addrB, 0x55));
    c.drain();
    c.flushCacheToMemory();
    EXPECT_EQ(mem.readWord(addrA), 0x99u);
    EXPECT_EQ(mem.readWord(addrB), 0x55u);
}

TEST_F(ControllerTest, MultiEntryBufferHoldsSeveralGroups)
{
    auto c = make(WriteScheme::WriteGrouping, 2);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.access(readAcc(addrC));
    c.resetStats();

    c.access(writeAcc(addrA, 1)); // group 1
    c.access(writeAcc(addrB, 2)); // group 2 (no eviction: 2 entries)
    c.access(writeAcc(addrA, 3)); // still grouped!
    c.access(writeAcc(addrB, 4)); // still grouped!
    EXPECT_EQ(c.groupedWrites(), 2u);
    EXPECT_EQ(c.demandRowWrites(), 0u);

    c.access(writeAcc(addrC, 5)); // evicts the LRU group (A)
    EXPECT_EQ(c.groupWritebacks(), 1u);
}

TEST_F(ControllerTest, GroupSizeDistributionRecorded)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(readAcc(addrA));
    c.access(readAcc(addrB));
    c.resetStats();

    c.access(writeAcc(addrA, 1));
    c.access(writeAcc(addrA, 2));
    c.access(writeAcc(addrA, 3));
    c.access(writeAcc(addrB, 4)); // closes the size-3 group
    c.drain();                    // closes the size-1 group
    EXPECT_EQ(c.groupSizes().count(), 2u);
    EXPECT_DOUBLE_EQ(c.groupSizes().mean(), 2.0);
    EXPECT_DOUBLE_EQ(c.groupSizes().max(), 3.0);
}

TEST_F(ControllerTest, RmwOccupiesBothPorts)
{
    auto c = make(WriteScheme::Rmw);
    c.access(readAcc(addrA));
    c.resetStats();
    c.access(writeAcc(addrA, 1));
    EXPECT_GT(c.ports().readBusyCycles(), 0u);
    EXPECT_GT(c.ports().writeBusyCycles(), 0u);
}

TEST_F(ControllerTest, LocalRmwLeavesReadPortFree)
{
    auto c = make(WriteScheme::LocalRmw);
    c.access(readAcc(addrA));
    c.resetStats();
    c.access(writeAcc(addrA, 1));
    EXPECT_EQ(c.ports().readBusyCycles(), 0u);
    EXPECT_GT(c.ports().writeBusyCycles(), 0u);
}

TEST_F(ControllerTest, EnergyAccumulates)
{
    auto c = make(WriteScheme::Rmw);
    c.access(readAcc(addrA));
    const double e1 = c.dynamicEnergy();
    EXPECT_GT(e1, 0.0);
    c.access(writeAcc(addrA, 1));
    EXPECT_GT(c.dynamicEnergy(), e1);
}

TEST_F(ControllerTest, WordGranularArrayIsNonInterleaved)
{
    auto c = make(WriteScheme::WordGranular);
    EXPECT_EQ(c.array().geometry().interleaveDegree, 1u);
    EXPECT_TRUE(c.array().geometry().wordGranularWwl);
}

TEST_F(ControllerTest, HitAndMissReported)
{
    auto c = make(WriteScheme::Rmw);
    EXPECT_FALSE(c.access(readAcc(addrA)).hit);
    EXPECT_TRUE(c.access(readAcc(addrA)).hit);
}

TEST_F(ControllerTest, MissPenaltyAppearsInReadLatency)
{
    auto c = make(WriteScheme::Rmw);
    const AccessOutcome miss = c.access(readAcc(addrA));
    MemAccess later = readAcc(addrA);
    later.gap = 100; // let the miss window drain off the ports
    const AccessOutcome hit = c.access(later);
    EXPECT_GE(miss.latencyCycles,
              c.config().latency.missPenaltyCycles);
    EXPECT_LT(hit.latencyCycles, miss.latencyCycles);
}

TEST_F(ControllerTest, ResetStatsKeepsArchitecturalState)
{
    auto c = make(WriteScheme::WriteGrouping);
    c.access(writeAcc(addrA, 0x42));
    c.resetStats();
    EXPECT_EQ(c.demandAccesses(), 0u);
    EXPECT_EQ(c.requests(), 0u);
    // Data survives the reset.
    EXPECT_EQ(c.access(readAcc(addrA)).data, 0x42u);
}

// --- golden digests of every scheme ---------------------------------

/** FNV-1a over 64-bit words and byte strings. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    void word(std::uint64_t v) { bytes(&v, sizeof v); }
};

/** A stream that mixes misses (a footprint 4x the cache), Tag-Buffer
 *  hits (half the requests stay on the previous block) and silent
 *  stores (most stores write 0 or 1). */
std::vector<MemAccess>
goldenStream()
{
    c8t::trace::Rng rng(0x60d5);
    std::vector<MemAccess> out;
    std::uint64_t block = 0;
    for (int i = 0; i < 6000; ++i) {
        if (rng.below(2) == 0)
            block = rng.below(512) * 32;
        MemAccess a;
        a.size = static_cast<std::uint8_t>(1u << rng.below(4));
        a.addr = block + rng.below(32 / a.size) * a.size;
        a.gap = static_cast<std::uint32_t>(rng.below(3));
        if (rng.below(2) != 0) {
            a.type = AccessType::Write;
            const std::uint64_t v = rng.below(4) == 0 ? rng.next()
                                                      : rng.below(2);
            a.data = a.size == 8 ? v : v & ((1ull << (8 * a.size)) - 1);
        }
        out.push_back(a);
    }
    return out;
}

/** Digests of one run: the per-access outcomes (access() runs only),
 *  the registerStats JSON after drain(), and dynamicEnergy()'s bits. */
struct GoldenDigest
{
    std::uint64_t outcomes = 0;
    std::uint64_t stats = 0;
    std::uint64_t energy = 0;
};

GoldenDigest
runGolden(WriteScheme scheme, std::uint32_t entries, c8t::mem::ReplKind repl,
          bool chunked)
{
    ControllerConfig cfg;
    cfg.cache = c8t::mem::CacheConfig{4 * 1024, 4, 32};
    cfg.cache.replacement = repl;
    cfg.scheme = scheme;
    cfg.bufferEntries = entries;
    FunctionalMemory mem;
    CacheController ctrl(cfg, mem);

    const std::vector<MemAccess> stream = goldenStream();
    Fnv outcomes;
    if (chunked) {
        for (std::size_t off = 0; off < stream.size(); off += 1500)
            ctrl.accessChunk(stream.data() + off,
                             std::min<std::size_t>(1500,
                                                   stream.size() - off));
    } else {
        for (const MemAccess &a : stream) {
            const AccessOutcome o = ctrl.access(a);
            outcomes.word(o.hit);
            outcomes.word(o.tagBufferHit);
            outcomes.word(o.bypassed);
            outcomes.word(o.data);
            outcomes.word(o.latencyCycles);
        }
    }
    ctrl.drain();

    c8t::stats::Registry reg;
    ctrl.registerStats(reg);
    std::ostringstream json;
    reg.dumpJson(json);
    Fnv stats;
    stats.bytes(json.str().data(), json.str().size());

    GoldenDigest d;
    d.outcomes = chunked ? 0 : outcomes.h;
    d.stats = stats.h;
    d.energy = std::bit_cast<std::uint64_t>(ctrl.dynamicEnergy());
    return d;
}

struct GoldenRow
{
    WriteScheme scheme;
    std::uint32_t entries;
    c8t::mem::ReplKind repl;
    GoldenDigest want;
};

// Every scheme, LocalRMW and WordGranular included, must reproduce its
// digests bit for bit: a changed digest is a changed simulation result.
const GoldenRow kGolden[] = {
    {WriteScheme::SixTDirect, 1, c8t::mem::ReplKind::Lru,
     {0x813356f1162d7858ull, 0x6ae456e1752b4fdcull, 0x3e73f9689a643918ull}},
    {WriteScheme::SixTDirect, 1, c8t::mem::ReplKind::Random,
     {0x7c847e103c34dd6cull, 0x0545e4c1c8540144ull, 0x3e73f08bdea78286ull}},
    {WriteScheme::SixTDirect, 4, c8t::mem::ReplKind::Lru,
     {0x813356f1162d7858ull, 0x6ae456e1752b4fdcull, 0x3e73f9689a643918ull}},
    {WriteScheme::SixTDirect, 4, c8t::mem::ReplKind::Random,
     {0x7c847e103c34dd6cull, 0x0545e4c1c8540144ull, 0x3e73f08bdea78286ull}},
    {WriteScheme::Rmw, 1, c8t::mem::ReplKind::Lru,
     {0xec2b1b3f2e629306ull, 0xb7be41fad3da2319ull, 0x3e828ade73813094ull}},
    {WriteScheme::Rmw, 1, c8t::mem::ReplKind::Random,
     {0x8dacd16883e79c66ull, 0x36dba0292a64ff06ull, 0x3e82867015a2d54cull}},
    {WriteScheme::Rmw, 4, c8t::mem::ReplKind::Lru,
     {0xec2b1b3f2e629306ull, 0xb7be41fad3da2319ull, 0x3e828ade73813094ull}},
    {WriteScheme::Rmw, 4, c8t::mem::ReplKind::Random,
     {0x8dacd16883e79c66ull, 0x36dba0292a64ff06ull, 0x3e82867015a2d54cull}},
    {WriteScheme::LocalRmw, 1, c8t::mem::ReplKind::Lru,
     {0x16526e711da5c250ull, 0x56adbdb1a6b4c133ull, 0x3e828ade73813094ull}},
    {WriteScheme::LocalRmw, 1, c8t::mem::ReplKind::Random,
     {0x00c9e3c35a18213cull, 0x5e62eff772b45bc4ull, 0x3e82867015a2d54cull}},
    {WriteScheme::LocalRmw, 4, c8t::mem::ReplKind::Lru,
     {0x16526e711da5c250ull, 0x56adbdb1a6b4c133ull, 0x3e828ade73813094ull}},
    {WriteScheme::LocalRmw, 4, c8t::mem::ReplKind::Random,
     {0x00c9e3c35a18213cull, 0x5e62eff772b45bc4ull, 0x3e82867015a2d54cull}},
    {WriteScheme::WordGranular, 1, c8t::mem::ReplKind::Lru,
     {0x813356f1162d7858ull, 0x6ae456e1752b4fdcull, 0x3e73f9689a643918ull}},
    {WriteScheme::WordGranular, 1, c8t::mem::ReplKind::Random,
     {0x7c847e103c34dd6cull, 0x0545e4c1c8540144ull, 0x3e73f08bdea78286ull}},
    {WriteScheme::WordGranular, 4, c8t::mem::ReplKind::Lru,
     {0x813356f1162d7858ull, 0x6ae456e1752b4fdcull, 0x3e73f9689a643918ull}},
    {WriteScheme::WordGranular, 4, c8t::mem::ReplKind::Random,
     {0x7c847e103c34dd6cull, 0x0545e4c1c8540144ull, 0x3e73f08bdea78286ull}},
    {WriteScheme::WriteGrouping, 1, c8t::mem::ReplKind::Lru,
     {0x40c50ae50d9a70d5ull, 0x6b8c972ba3073f15ull, 0x3e7ede4d036ebfa1ull}},
    {WriteScheme::WriteGrouping, 1, c8t::mem::ReplKind::Random,
     {0x6b4f5fc4ccb9c9f3ull, 0xc7c6a97f59024d71ull, 0x3e7ed41927539b74ull}},
    {WriteScheme::WriteGrouping, 4, c8t::mem::ReplKind::Lru,
     {0xbe3a63ec1a267c82ull, 0x13297a1308d8e241ull, 0x3e7eaf62f011c89dull}},
    {WriteScheme::WriteGrouping, 4, c8t::mem::ReplKind::Random,
     {0x95eb0ccb52c7ed05ull, 0x336d3ee56e03090eull, 0x3e7ea928a5888ba7ull}},
    {WriteScheme::WriteGroupingReadBypass, 1, c8t::mem::ReplKind::Lru,
     {0x38119c995a0570d7ull, 0x2d65d778d3e95bfaull, 0x3e7c456953777926ull}},
    {WriteScheme::WriteGroupingReadBypass, 1, c8t::mem::ReplKind::Random,
     {0xa5947016610bd5b0ull, 0x9da9b35c62802301ull, 0x3e7c3a3d6871b6f2ull}},
    {WriteScheme::WriteGroupingReadBypass, 4, c8t::mem::ReplKind::Lru,
     {0x3f63ef172e00b87bull, 0x134101ce3b859b15ull, 0x3e7bee6c778fb0e5ull}},
    {WriteScheme::WriteGroupingReadBypass, 4, c8t::mem::ReplKind::Random,
     {0x76ed6e60085aaf0dull, 0x9c3ed41a16eb1ff4ull, 0x3e7bede5f05ad412ull}},
};

TEST(ControllerGolden, EverySchemeMatchesItsDigestsThroughEveryPath)
{
    for (const GoldenRow &row : kGolden) {
        SCOPED_TRACE(std::string(toString(row.scheme)) + " entries " +
                     std::to_string(row.entries) + " " +
                     c8t::mem::toString(row.repl));
        const GoldenDigest one =
            runGolden(row.scheme, row.entries, row.repl, false);
        // Chunked: planned under LRU, live under Random.
        const GoldenDigest chunk =
            runGolden(row.scheme, row.entries, row.repl, true);
        char line[160];
        std::snprintf(line, sizeof line,
                      "{0x%016llxull, 0x%016llxull, 0x%016llxull}",
                      static_cast<unsigned long long>(one.outcomes),
                      static_cast<unsigned long long>(one.stats),
                      static_cast<unsigned long long>(one.energy));
        EXPECT_EQ(one.outcomes, row.want.outcomes) << line;
        EXPECT_EQ(one.stats, row.want.stats) << line;
        EXPECT_EQ(one.energy, row.want.energy) << line;
        EXPECT_EQ(chunk.stats, row.want.stats);
        EXPECT_EQ(chunk.energy, row.want.energy);
    }
}

} // anonymous namespace

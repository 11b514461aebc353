/**
 * @file
 * Unit tests for the cache tag array.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/cache.hh"

namespace
{

using namespace c8t::mem;

/** Mark the resident block holding @p addr dirty, through the way
 *  its lookup resolves, as the controller does. */
void
markDirty(TagArray &t, Addr addr)
{
    const LookupResult r = t.probe(addr);
    ASSERT_TRUE(r.hit);
    t.markDirtyWay(t.layout().setOf(addr), r.way);
}

CacheConfig
baseline()
{
    return CacheConfig{}; // 64 KB / 4-way / 32 B / LRU
}

TEST(CacheConfig, BaselineShape)
{
    const CacheConfig c = baseline();
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_EQ(c.setBytes(), 128u);
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.toString(), "64KB/4w/32B/lru");
}

TEST(CacheConfig, RejectsBadShapes)
{
    CacheConfig c = baseline();
    c.blockBytes = 24;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = baseline();
    c.ways = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = baseline();
    c.sizeBytes = 64 * 1024 + 128;
    EXPECT_THROW(c.validate(), std::invalid_argument);

    c = baseline();
    c.sizeBytes = 3 * 32 * 1024; // 768 sets: not a power of two
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(CacheConfig, RejectsShapesOutsideThePolicyEncoding)
{
    // Tree-PLRU needs a power-of-two way count: a 3-way tree would
    // never name way 2 as a victim. 48 KB / 3 ways / 32 B is otherwise
    // a legal shape (512 sets).
    CacheConfig c{48 * 1024, 3, 32, ReplKind::TreePlru};
    EXPECT_THROW(c.validate(), std::invalid_argument);
    EXPECT_THROW(TagArray{c}, std::invalid_argument);
    c.replacement = ReplKind::Lru;
    EXPECT_NO_THROW(c.validate());
    c.replacement = ReplKind::Fifo;
    EXPECT_NO_THROW(c.validate());

    // LRU's recency word holds 16 ways; the other policies reach the
    // 64-way associativity bound.
    c = CacheConfig{64 * 1024, 16, 32, ReplKind::Lru};
    EXPECT_NO_THROW(c.validate());
    c.ways = 32;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    for (ReplKind k :
         {ReplKind::TreePlru, ReplKind::Fifo, ReplKind::Random}) {
        c.replacement = k;
        c.ways = 64;
        EXPECT_NO_THROW(c.validate()) << toString(k);
    }
}

TEST(TagArray, ColdMissThenHit)
{
    TagArray t(baseline());
    EXPECT_FALSE(t.access(0x1000).hit);
    t.fill(0x1000);
    const LookupResult r = t.access(0x1000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(t.hits(), 1u);
    EXPECT_EQ(t.misses(), 1u);
}

TEST(TagArray, BlockGranularHits)
{
    TagArray t(baseline());
    t.fill(0x1000);
    EXPECT_TRUE(t.access(0x1000 + 31).hit); // same 32 B block
    EXPECT_FALSE(t.access(0x1000 + 32).hit); // next block
}

TEST(TagArray, ProbeHasNoSideEffects)
{
    TagArray t(baseline());
    t.fill(0x1000);
    (void)t.probe(0x1000);
    (void)t.probe(0x9999);
    EXPECT_EQ(t.hits(), 0u);
    EXPECT_EQ(t.misses(), 0u);
}

TEST(TagArray, FillsUseInvalidWaysFirst)
{
    TagArray t(baseline());
    const Addr set_span = 32 * 512;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const FillResult f = t.fill(0x1000 + i * set_span);
        EXPECT_FALSE(f.evictedValid) << i;
    }
    // Fifth block in the same set evicts.
    const FillResult f = t.fill(0x1000 + 4 * set_span);
    EXPECT_TRUE(f.evictedValid);
}

TEST(TagArray, LruEvictionOrder)
{
    TagArray t(baseline());
    const Addr set_span = 32 * 512;
    for (std::uint64_t i = 0; i < 4; ++i)
        t.fill(0x1000 + i * set_span);
    // Touch block 0 so block 1 is LRU.
    t.access(0x1000);
    const FillResult f = t.fill(0x1000 + 4 * set_span);
    EXPECT_TRUE(f.evictedValid);
    EXPECT_EQ(f.evictedBlockAddr, 0x1000 + 1 * set_span);
}

TEST(TagArray, EvictionReportsDirtyState)
{
    TagArray t(baseline());
    const Addr set_span = 32 * 512;
    for (std::uint64_t i = 0; i < 4; ++i)
        t.fill(0x2000 + i * set_span);
    markDirty(t, 0x2000); // block 0 dirty
    for (std::uint64_t i = 1; i < 4; ++i)
        t.access(0x2000 + i * set_span); // make block 0 LRU

    const FillResult f = t.fill(0x2000 + 4 * set_span);
    EXPECT_TRUE(f.evictedValid);
    EXPECT_TRUE(f.evictedDirty);
    EXPECT_EQ(f.evictedBlockAddr, 0x2000u);
    EXPECT_EQ(t.dirtyEvictions(), 1u);
}

TEST(TagArray, DirtyBitLifecycle)
{
    TagArray t(baseline());
    t.fill(0x3000);
    const std::uint32_t set = t.layout().setOf(0x3000);
    const std::uint32_t way = t.probe(0x3000).way;
    EXPECT_FALSE(t.isDirty(set, way));
    markDirty(t, 0x3000);
    EXPECT_TRUE(t.isDirty(set, way));
    t.clearDirty(set, way);
    EXPECT_FALSE(t.isDirty(set, way));
}

TEST(TagArray, TagsOfSetMirrorsContents)
{
    TagArray t(baseline());
    const Addr set_span = 32 * 512;
    t.fill(0x4000);
    t.fill(0x4000 + set_span);
    const std::uint32_t set = t.layout().setOf(0x4000);
    std::vector<Addr> tags(4, ~Addr{0});
    t.copyTagsOfSet(set, tags.data());
    EXPECT_EQ(t.validMask(set), 0b0011u);
    EXPECT_EQ(tags[0], t.layout().tagOf(0x4000));
    EXPECT_EQ(tags[1], t.layout().tagOf(0x4000 + set_span));
    EXPECT_EQ(tags[2], 0u); // invalid ways report tag 0
    EXPECT_EQ(tags[3], 0u);
}

TEST(TagArray, BlockAddrAtRebuilds)
{
    TagArray t(baseline());
    t.fill(0xabcd00);
    const std::uint32_t set = t.layout().setOf(0xabcd00);
    const std::uint32_t way = t.probe(0xabcd00).way;
    EXPECT_EQ(t.blockAddrAt(set, way), t.layout().blockAlign(0xabcd00));
}

TEST(TagArray, FillClearsDirty)
{
    TagArray t(baseline());
    const Addr set_span = 32 * 512;
    // Fill and dirty four blocks, then evict one and refill: the new
    // line must start clean.
    for (std::uint64_t i = 0; i < 4; ++i) {
        t.fill(0x5000 + i * set_span);
        markDirty(t, 0x5000 + i * set_span);
    }
    const FillResult f = t.fill(0x5000 + 4 * set_span);
    EXPECT_FALSE(t.isDirty(t.layout().setOf(0x5000), f.way));
}

TEST(TagArray, DistinctSetsIndependent)
{
    TagArray t(baseline());
    t.fill(0x1000);
    EXPECT_FALSE(t.access(0x1020).hit); // neighbouring set untouched
}

TEST(TagArray, ResetCountersKeepsContents)
{
    TagArray t(baseline());
    t.fill(0x1000);
    t.access(0x1000);
    t.resetCounters();
    EXPECT_EQ(t.hits(), 0u);
    EXPECT_TRUE(t.probe(0x1000).hit);
}

TEST(TagArray, WorksWithAllPolicies)
{
    for (ReplKind k : {ReplKind::Lru, ReplKind::TreePlru, ReplKind::Fifo,
                       ReplKind::Random}) {
        CacheConfig c = baseline();
        c.replacement = k;
        TagArray t(c);
        t.fill(0x1000);
        EXPECT_TRUE(t.access(0x1000).hit) << toString(k);
    }
}

} // anonymous namespace

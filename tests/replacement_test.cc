/**
 * @file
 * Unit and property tests for the reference replacement policies
 * (the oracle the TagArray's packed encodings are checked against).
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "repl_oracle.hh"

namespace
{

using namespace c8t::mem;

TEST(ReplKind, NamesRoundTrip)
{
    for (ReplKind k : {ReplKind::Lru, ReplKind::TreePlru, ReplKind::Fifo,
                       ReplKind::Random}) {
        EXPECT_EQ(parseReplKind(toString(k)), k);
    }
    EXPECT_THROW(parseReplKind("mru"), std::invalid_argument);
}

TEST(Lru, PrefersInvalidWays)
{
    LruPolicy p(4, 4);
    p.touch(0, 0);
    // Way 2 invalid => victim must be 2 even though 0 was touched.
    EXPECT_EQ(p.victim(0, 0b1011), 2u);
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy p(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.insert(0, w);
    p.touch(0, 0); // order now: 1 oldest, then 2, 3, 0
    EXPECT_EQ(p.victim(0, 0b1111), 1u);
    p.touch(0, 1);
    EXPECT_EQ(p.victim(0, 0b1111), 2u);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy p(2, 2);
    p.insert(0, 0);
    p.insert(0, 1);
    p.insert(1, 1);
    p.insert(1, 0);
    p.touch(0, 0);
    p.touch(1, 1);
    EXPECT_EQ(p.victim(0, 0b11), 1u);
    EXPECT_EQ(p.victim(1, 0b11), 0u);
}

TEST(TreePlru, VictimIsNeverMostRecentlyUsed)
{
    TreePlruPolicy p(1, 8);
    for (std::uint32_t w = 0; w < 8; ++w)
        p.insert(0, w);
    for (int round = 0; round < 100; ++round) {
        const std::uint32_t mru = round % 8;
        p.touch(0, mru);
        EXPECT_NE(p.victim(0, 0xff), mru);
    }
}

TEST(TreePlru, PrefersInvalidWays)
{
    TreePlruPolicy p(1, 4);
    p.touch(0, 3);
    EXPECT_EQ(p.victim(0, 0b0111), 3u);
}

TEST(TreePlru, CyclesThroughAllWaysUnderInsertion)
{
    // Repeatedly inserting at the victim touches every way eventually.
    TreePlruPolicy p(1, 4);
    std::set<std::uint32_t> victims;
    std::uint64_t valid = 0;
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t v = p.victim(0, valid);
        victims.insert(v);
        valid |= 1ull << v;
        p.insert(0, v);
    }
    EXPECT_EQ(victims.size(), 4u);
}

TEST(Fifo, EvictsInFillOrderIgnoringTouches)
{
    FifoPolicy p(1, 4);
    for (std::uint32_t w = 0; w < 4; ++w)
        p.insert(0, w);
    p.touch(0, 0); // FIFO must ignore this
    EXPECT_EQ(p.victim(0, 0b1111), 0u);
    p.insert(0, 0); // refill 0 => next victim is 1
    EXPECT_EQ(p.victim(0, 0b1111), 1u);
}

TEST(Random, DeterministicGivenSeed)
{
    RandomPolicy a(1, 8, 99), b(1, 8, 99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.victim(0, 0xff), b.victim(0, 0xff));
}

TEST(Random, CoversAllWays)
{
    RandomPolicy p(1, 4, 7);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(p.victim(0, 0b1111));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Factory, ConstructsEveryKind)
{
    for (ReplKind k : {ReplKind::Lru, ReplKind::TreePlru, ReplKind::Fifo,
                       ReplKind::Random}) {
        auto p = makeReplacementPolicy(k, 8, 4);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), toString(k));
    }
}

/**
 * Property: across all policies, a victim is always a legal way and
 * invalid ways are always preferred.
 */
class PolicyProperty : public ::testing::TestWithParam<ReplKind>
{};

TEST_P(PolicyProperty, VictimAlwaysLegal)
{
    auto p = makeReplacementPolicy(GetParam(), 16, 4, 5);
    for (std::uint32_t set = 0; set < 16; ++set) {
        for (int i = 0; i < 50; ++i) {
            const std::uint32_t v = p->victim(set, 0b1111);
            EXPECT_LT(v, 4u);
            p->touch(set, v);
        }
    }
}

TEST_P(PolicyProperty, InvalidWaysFirst)
{
    auto p = makeReplacementPolicy(GetParam(), 4, 4, 5);
    p->insert(0, 0);
    p->insert(0, 1);
    const std::uint32_t v = p->victim(0, 0b0011); // ways 2,3 invalid
    EXPECT_GE(v, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(ReplKind::Lru,
                                           ReplKind::TreePlru,
                                           ReplKind::Fifo,
                                           ReplKind::Random),
                         [](const auto &info) {
                             return std::string(toString(info.param));
                         });

} // anonymous namespace

/**
 * @file
 * Unit tests for the flat open-addressing WordMap backing the
 * functional memory and the Markov stream's shadow state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/word_map.hh"
#include "trace/rng.hh"

namespace
{

using c8t::mem::WordMap;

TEST(WordMap, EmptyMapReadsAsZero)
{
    const WordMap m;
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.get(0), 0u);
    EXPECT_EQ(m.get(0x1000), 0u);
    EXPECT_FALSE(m.contains(0x1000));
}

TEST(WordMap, RoundTrip)
{
    WordMap m;
    m.set(0x40, 1);
    m.set(0x48, 2);
    m.set(0x40, 3); // overwrite
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.get(0x40), 3u);
    EXPECT_EQ(m.get(0x48), 2u);
    EXPECT_EQ(m.get(0x50), 0u);
}

TEST(WordMap, ZeroValuesAreStoredEntries)
{
    WordMap m;
    m.set(0x80, 0);
    EXPECT_TRUE(m.contains(0x80));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.get(0x80), 0u);
}

TEST(WordMap, EraseRemovesAndIsIdempotent)
{
    WordMap m;
    m.set(0x10, 7);
    m.set(0x18, 8);
    m.erase(0x10);
    EXPECT_FALSE(m.contains(0x10));
    EXPECT_EQ(m.get(0x10), 0u);
    EXPECT_EQ(m.get(0x18), 8u);
    EXPECT_EQ(m.size(), 1u);
    m.erase(0x10); // absent: no-op
    m.erase(0x20); // never present: no-op
    EXPECT_EQ(m.size(), 1u);
}

TEST(WordMap, EraseKeepsCollidingChainsReachable)
{
    // Force many keys through a small table so probe chains wrap and
    // backward-shift deletion gets exercised across the boundary.
    WordMap m;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 48; ++i)
        keys.push_back(i * 8);
    for (std::uint64_t k : keys)
        m.set(k, k + 1);

    // Delete every third key, then verify every survivor is intact.
    for (std::size_t i = 0; i < keys.size(); i += 3)
        m.erase(keys[i]);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 3 == 0) {
            EXPECT_FALSE(m.contains(keys[i])) << "key " << keys[i];
        } else {
            EXPECT_EQ(m.get(keys[i]), keys[i] + 1) << "key " << keys[i];
        }
    }
}

TEST(WordMap, ClearKeepsCapacityAndEmptiesMap)
{
    WordMap m;
    for (std::uint64_t i = 0; i < 100; ++i)
        m.set(i * 8, i);
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.get(0x40), 0u);
    m.set(0x40, 9);
    EXPECT_EQ(m.get(0x40), 9u);
}

TEST(WordMap, ReservePreservesContents)
{
    WordMap m;
    for (std::uint64_t i = 0; i < 20; ++i)
        m.set(i * 8, ~i);
    m.reserve(1 << 16);
    EXPECT_EQ(m.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(m.get(i * 8), ~i);
}

TEST(WordMap, ForEachVisitsEveryEntryOnce)
{
    WordMap m;
    for (std::uint64_t i = 0; i < 33; ++i)
        m.set(i * 8, i);
    std::uint64_t count = 0, key_sum = 0;
    m.forEach([&](std::uint64_t k, std::uint64_t v) {
        ++count;
        key_sum += k;
        EXPECT_EQ(v, k / 8);
    });
    EXPECT_EQ(count, 33u);
    EXPECT_EQ(key_sum, 8u * (32u * 33u / 2u));
}

TEST(WordMap, RandomizedCrossCheckAgainstUnorderedMap)
{
    // Mixed inserts / overwrites / erases over a small key space so
    // collisions, growth and deletion interleave heavily.
    c8t::trace::Rng rng(12345);
    WordMap m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (int op = 0; op < 200'000; ++op) {
        const std::uint64_t key = rng.below(4096) * 8;
        switch (rng.below(3)) {
          case 0:
          case 1: {
            const std::uint64_t value = rng.next();
            m.set(key, value);
            ref[key] = value;
            break;
          }
          default:
            m.erase(key);
            ref.erase(key);
            break;
        }
    }

    ASSERT_EQ(m.size(), ref.size());
    for (const auto &[k, v] : ref)
        ASSERT_EQ(m.get(k), v) << "key " << k;
    for (std::uint64_t k = 0; k < 4096 * 8; k += 8) {
        ASSERT_EQ(m.contains(k), ref.count(k) != 0) << "key " << k;
        if (!ref.count(k)) {
            ASSERT_EQ(m.get(k), 0u) << "key " << k;
        }
    }
}

} // anonymous namespace

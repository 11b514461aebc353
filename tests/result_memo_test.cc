/**
 * @file
 * Tests of core::Memo as the c8td result memo instantiates it
 * (DESIGN.md §13): single-flight fills, failure hand-over to the next
 * waiter, and least-recently-used eviction under the byte budget.
 */

#include <atomic>
#include <barrier>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/memo.hh"

namespace
{

using namespace c8t;
using namespace std::chrono_literals;

/** The daemon's instantiation: canonical spec -> document, charged
 *  key + document bytes. */
using ResultMemo = core::Memo<std::string>;

/** Budget for the cases that do not exercise eviction. */
constexpr std::uint64_t kRoomyBudget = 1u << 20;

/** getOrCompute with a compute that returns @p doc; @return hit. */
bool
fetch(ResultMemo &memo, const std::string &key, const std::string &doc,
      int &computes)
{
    bool hit = false;
    const ResultMemo::Value got = memo.getOrCompute(
        key,
        [&] {
            ++computes;
            return doc;
        },
        hit);
    EXPECT_EQ(*got, doc);
    return hit;
}

TEST(ResultMemo, ConcurrentCallersForOneKeyComputeOnce)
{
    constexpr int kThreads = 8;
    ResultMemo memo(kRoomyBudget);
    std::atomic<int> computes{0};
    std::atomic<int> hits{0};
    std::barrier<> start(kThreads);
    std::vector<ResultMemo::Value> docs(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            bool hit = false;
            docs[i] = memo.getOrCompute(
                "k",
                [&] {
                    ++computes;
                    std::this_thread::sleep_for(50ms);
                    return std::string("document");
                },
                hit);
            hits += hit;
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(hits.load(), kThreads - 1);
    for (const auto &d : docs)
        EXPECT_EQ(d, docs[0]); // the one stored document, shared
    EXPECT_EQ(memo.stats().entries, 1u);
}

TEST(ResultMemo, FailedLeaderLeavesTheKeyToTheNextWaiter)
{
    ResultMemo memo(kRoomyBudget);
    std::atomic<bool> leader_in{false};
    std::atomic<bool> release{false};
    std::thread leader([&] {
        bool hit = false;
        EXPECT_THROW(memo.getOrCompute(
                         "k",
                         [&]() -> std::string {
                             leader_in = true;
                             while (!release)
                                 std::this_thread::sleep_for(1ms);
                             throw std::runtime_error("cancelled");
                         },
                         hit),
                     std::runtime_error);
    });
    while (!leader_in)
        std::this_thread::sleep_for(1ms);

    // This caller queues behind the leader and, once the leader has
    // failed, computes the key itself instead of inheriting the error.
    int computes = 0;
    bool hit = true;
    std::thread follower([&] { hit = fetch(memo, "k", "doc", computes); });
    std::this_thread::sleep_for(20ms);
    release = true;
    leader.join();
    follower.join();
    EXPECT_FALSE(hit);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(memo.stats().entries, 1u);

    // A failure with nobody waiting leaves nothing behind.
    bool unused = false;
    EXPECT_THROW(memo.getOrCompute(
                     "bad",
                     []() -> std::string {
                         throw std::runtime_error("no such workload");
                     },
                     unused),
                 std::runtime_error);
    EXPECT_EQ(memo.stats().entries, 1u);
    EXPECT_EQ(memo.stats().bytes, std::string("k").size() + 3);
}

TEST(ResultMemo, EvictsLeastRecentlyUsedUnderTheByteBudget)
{
    // Each entry charges key (1 byte) + document (9 bytes): three fit.
    ResultMemo memo(30);
    const auto doc = [](char k) { return std::string(9, k); };
    int computes = 0;
    for (const char k : {'a', 'b', 'c'})
        EXPECT_FALSE(fetch(memo, std::string(1, k), doc(k), computes));
    EXPECT_EQ(memo.stats().bytes, 30u);
    EXPECT_EQ(memo.stats().evictions, 0u);

    // Touch a: b is now the least recently used, and d evicts it.
    EXPECT_TRUE(fetch(memo, "a", doc('a'), computes));
    EXPECT_FALSE(fetch(memo, "d", doc('d'), computes));
    EXPECT_EQ(memo.stats().evictions, 1u);
    EXPECT_EQ(memo.stats().entries, 3u);
    EXPECT_EQ(memo.stats().bytes, 30u);
    EXPECT_TRUE(fetch(memo, "a", doc('a'), computes));
    EXPECT_TRUE(fetch(memo, "c", doc('c'), computes));
    EXPECT_TRUE(fetch(memo, "d", doc('d'), computes));

    // The evicted key is computed again, to the same bytes (fetch
    // checks them), and evicts the now least recently used a.
    computes = 0;
    EXPECT_FALSE(fetch(memo, "b", doc('b'), computes));
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(memo.stats().evictions, 2u);
    EXPECT_FALSE(fetch(memo, "a", doc('a'), computes));
    EXPECT_EQ(computes, 2);
}

TEST(ResultMemo, DocumentOverTheBudgetIsServedButNotKept)
{
    ResultMemo memo(8);
    int computes = 0;
    EXPECT_FALSE(fetch(memo, "big", std::string(64, 'x'), computes));
    EXPECT_EQ(memo.stats().entries, 0u);
    EXPECT_EQ(memo.stats().bytes, 0u);
    EXPECT_EQ(memo.stats().evictions, 1u);
    EXPECT_FALSE(fetch(memo, "big", std::string(64, 'x'), computes));
    EXPECT_EQ(computes, 2);
}

} // namespace

/**
 * @file
 * Tests for the process-wide fault-map campaign memo
 * (core/fault_cache.hh).
 *
 * The contract pinned here: concurrent first requests for one key run
 * the campaign once — one miss, every other caller a hit — so the memo
 * counters a sweep reports do not depend on thread timing.
 */

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "core/fault_cache.hh"

namespace
{

using namespace c8t;

sram::FaultMapConfig
campaign()
{
    sram::FaultMapConfig cfg;
    cfg.runSeed = 7;
    cfg.vdd = 0.6;
    cfg.cell = sram::CellType::SixT;
    cfg.pfailCell = 1e-3;
    cfg.rows = 1024;
    cfg.wordsPerRow = 16;
    cfg.degree = 4;
    return cfg;
}

TEST(FaultMapCache, ConcurrentFirstRequestsRunTheCampaignOnce)
{
    constexpr unsigned kThreads = 8;
    core::FaultMapCache cache;
    const sram::FaultMapConfig cfg = campaign();

    std::vector<sram::FaultMapStats> results(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = cache.evaluate(cfg);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const core::FaultMapCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, kThreads - 1);
    EXPECT_EQ(stats.entries, 1u);

    const sram::FaultMapStats expected = sram::runFaultMapCampaign(cfg);
    EXPECT_GT(expected.words, 0u);
    for (const sram::FaultMapStats &r : results) {
        EXPECT_EQ(r.words, expected.words);
        EXPECT_EQ(r.cleanWords, expected.cleanWords);
        EXPECT_EQ(r.corrected, expected.corrected);
        EXPECT_EQ(r.detectedUncorrectable, expected.detectedUncorrectable);
        EXPECT_EQ(r.silentCorruptions, expected.silentCorruptions);
    }
}

} // namespace

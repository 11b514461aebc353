/**
 * @file
 * SweepPool tests: batch execution, per-client fairness bookkeeping,
 * cancellation semantics and worker-thread re-entrancy (DESIGN.md
 * §13).
 */

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/worker_pool.hh"

namespace
{

using namespace c8t;
using core::SweepPool;

TEST(SweepPoolTest, RunsEveryTaskExactlyOnce)
{
    SweepPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);

    std::vector<std::atomic<int>> hits(64);
    std::vector<SweepPool::Task> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        tasks.push_back([&hits, i](unsigned worker) {
            EXPECT_LT(worker, 4u);
            hits[i].fetch_add(1);
        });
    }
    pool.runBatch(0, std::move(tasks));
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);

    const SweepPool::Stats s = pool.stats();
    EXPECT_EQ(s.tasksRun, 64u);
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.queuedTasks, 0u);
}

TEST(SweepPoolTest, RethrowsFirstTaskError)
{
    SweepPool pool(2);
    std::vector<SweepPool::Task> tasks;
    tasks.push_back([](unsigned) {});
    tasks.push_back([](unsigned) {
        throw std::runtime_error("task exploded");
    });
    tasks.push_back([](unsigned) {});
    EXPECT_THROW(pool.runBatch(0, std::move(tasks)),
                 std::runtime_error);
}

TEST(SweepPoolTest, ConcurrentClientsAllComplete)
{
    SweepPool pool(3);
    std::atomic<int> total{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&pool, &total] {
            const SweepPool::ClientId id = pool.registerClient();
            std::vector<SweepPool::Task> tasks;
            for (int i = 0; i < 16; ++i)
                tasks.push_back(
                    [&total](unsigned) { total.fetch_add(1); });
            pool.runBatch(id, std::move(tasks));
            pool.unregisterClient(id);
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(total.load(), 4 * 16);
    EXPECT_EQ(pool.stats().activeClients, 0u);
    EXPECT_EQ(pool.stats().clientsRegistered, 4u);
}

TEST(SweepPoolTest, CancelledSlotThrowsJobCancelled)
{
    SweepPool pool(1);
    const SweepPool::ClientId id = pool.registerClient();

    // Occupy the single worker so the victim's tasks stay unclaimed,
    // then cancel while the batch is pending.
    std::atomic<bool> blocker_running{false};
    std::atomic<bool> release{false};
    std::thread blocker([&pool, &blocker_running, &release] {
        std::vector<SweepPool::Task> tasks;
        tasks.push_back([&blocker_running, &release](unsigned) {
            blocker_running.store(true);
            while (!release.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        });
        pool.runBatch(0, std::move(tasks));
    });
    while (!blocker_running.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::atomic<bool> victim_ran{false};
    std::thread victim([&pool, id, &victim_ran] {
        std::vector<SweepPool::Task> tasks;
        tasks.push_back(
            [&victim_ran](unsigned) { victim_ran.store(true); });
        EXPECT_THROW(pool.runBatch(id, std::move(tasks)),
                     core::JobCancelled);
    });

    // Let the victim enqueue behind the blocker (or hit the cancelled
    // slot directly — both paths must throw).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pool.cancelClient(id);
    release.store(true);
    victim.join();
    blocker.join();
    EXPECT_FALSE(victim_ran.load());
    EXPECT_GE(pool.stats().tasksCancelled, 1u);

    // A cancelled slot rejects future submissions outright.
    std::vector<SweepPool::Task> more;
    more.push_back([](unsigned) {});
    EXPECT_THROW(pool.runBatch(id, std::move(more)),
                 core::JobCancelled);
    pool.unregisterClient(id);
}

TEST(SweepPoolTest, NestedSubmissionRunsInlineOnWorker)
{
    SweepPool pool(2);
    std::atomic<int> inner_runs{0};
    std::vector<SweepPool::Task> outer;
    outer.push_back([&pool, &inner_runs](unsigned) {
        EXPECT_EQ(SweepPool::current(), &pool);
        std::vector<SweepPool::Task> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back(
                [&inner_runs](unsigned) { inner_runs.fetch_add(1); });
        // Must not deadlock even with every other worker busy.
        pool.runBatch(0, std::move(inner));
    });
    pool.runBatch(0, std::move(outer));
    EXPECT_EQ(inner_runs.load(), 8);
    EXPECT_EQ(SweepPool::current(), nullptr);
}

TEST(SweepPoolTest, ClientScopeBindsAndRestores)
{
    EXPECT_EQ(SweepPool::currentClient(), 0u);
    {
        const SweepPool::ClientScope outer(7);
        EXPECT_EQ(SweepPool::currentClient(), 7u);
        {
            const SweepPool::ClientScope inner(9);
            EXPECT_EQ(SweepPool::currentClient(), 9u);
        }
        EXPECT_EQ(SweepPool::currentClient(), 7u);
    }
    EXPECT_EQ(SweepPool::currentClient(), 0u);
}

TEST(SweepPoolTest, GlobalInstallUninstall)
{
    EXPECT_EQ(core::globalSweepPool(), nullptr);
    {
        SweepPool pool(1);
        core::setGlobalSweepPool(&pool);
        EXPECT_EQ(core::globalSweepPool(), &pool);
        core::setGlobalSweepPool(nullptr);
    }
    EXPECT_EQ(core::globalSweepPool(), nullptr);
}

} // namespace

/**
 * @file
 * SweepPool tests: batch execution, per-client fairness bookkeeping,
 * cancellation semantics, worker-thread re-entrancy (DESIGN.md §13),
 * overlapping submit/wait batches and the worker telemetry they
 * report (DESIGN.md §5).
 */

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/worker_pool.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

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
    pool.wait(pool.submit(0, std::move(tasks)));
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
    EXPECT_THROW(pool.wait(pool.submit(0, std::move(tasks))),
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
            pool.wait(pool.submit(id, std::move(tasks)));
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
        pool.wait(pool.submit(0, std::move(tasks)));
    });
    while (!blocker_running.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::atomic<bool> victim_ran{false};
    std::thread victim([&pool, id, &victim_ran] {
        std::vector<SweepPool::Task> tasks;
        tasks.push_back(
            [&victim_ran](unsigned) { victim_ran.store(true); });
        EXPECT_THROW(pool.wait(pool.submit(id, std::move(tasks))),
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
    EXPECT_THROW(pool.wait(pool.submit(id, std::move(more))),
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
        pool.wait(pool.submit(0, std::move(inner)));
    });
    pool.wait(pool.submit(0, std::move(outer)));
    EXPECT_EQ(inner_runs.load(), 8);
    EXPECT_EQ(SweepPool::current(), nullptr);
}

TEST(SweepPoolTest, SubmittedBatchesOverlapAndWaitKeepsFirstError)
{
    SweepPool pool(2);
    std::atomic<int> second_runs{0};
    std::vector<SweepPool::Task> first;
    first.push_back([](unsigned) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("first error");
    });
    first.push_back([](unsigned) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::logic_error("second error");
    });
    std::vector<SweepPool::Task> second;
    for (int i = 0; i < 16; ++i)
        second.push_back(
            [&second_runs](unsigned) { second_runs.fetch_add(1); });

    // Both batches are queued before either is waited for.
    SweepPool::Ticket a = pool.submit(0, std::move(first));
    SweepPool::Ticket b = pool.submit(0, std::move(second));
    EXPECT_THROW(pool.wait(std::move(a)), std::runtime_error);
    EXPECT_NO_THROW(pool.wait(std::move(b)));
    EXPECT_EQ(second_runs.load(), 16);
    EXPECT_EQ(pool.stats().batches, 2u);

    // An empty batch and a default ticket wait for nothing.
    EXPECT_NO_THROW(pool.wait(pool.submit(0, {})));
    EXPECT_NO_THROW(pool.wait(SweepPool::Ticket{}));
}

TEST(SweepPoolTest, CancelledSlotFailsEveryOutstandingTicket)
{
    SweepPool pool(1);
    const SweepPool::ClientId id = pool.registerClient();

    // Hold the single worker so the client's tasks stay queued.
    std::atomic<bool> blocker_running{false};
    std::atomic<bool> release{false};
    std::vector<SweepPool::Task> block;
    block.push_back([&blocker_running, &release](unsigned) {
        blocker_running.store(true);
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    SweepPool::Ticket blocker = pool.submit(0, std::move(block));
    while (!blocker_running.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::atomic<int> ran{0};
    const auto batch = [&ran] {
        std::vector<SweepPool::Task> tasks;
        for (int i = 0; i < 4; ++i)
            tasks.push_back([&ran](unsigned) { ran.fetch_add(1); });
        return tasks;
    };
    SweepPool::Ticket a = pool.submit(id, batch());
    SweepPool::Ticket b = pool.submit(id, batch());
    pool.cancelClient(id);
    release.store(true);
    EXPECT_THROW(pool.wait(std::move(a)), core::JobCancelled);
    EXPECT_THROW(pool.wait(std::move(b)), core::JobCancelled);
    EXPECT_NO_THROW(pool.wait(std::move(blocker)));
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(pool.stats().tasksCancelled, 8u);
    EXPECT_THROW(pool.submit(id, batch()), core::JobCancelled);
    pool.unregisterClient(id);
}

TEST(SweepPoolTest, AbandonedBatchDropsOnlyItsUnclaimedTasks)
{
    SweepPool pool(1);

    // The single worker holds batch a's first task until a's other
    // three tasks have been dropped.
    std::atomic<bool> first_running{false};
    std::atomic<int> ran_a{0};
    std::atomic<int> ran_b{0};
    std::vector<SweepPool::Task> a_tasks;
    a_tasks.push_back([&](unsigned) {
        first_running.store(true);
        while (pool.stats().tasksCancelled < 3)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran_a.fetch_add(1);
    });
    for (int i = 0; i < 3; ++i)
        a_tasks.push_back([&ran_a](unsigned) { ran_a.fetch_add(1); });
    std::vector<SweepPool::Task> b_tasks;
    for (int i = 0; i < 2; ++i)
        b_tasks.push_back([&ran_b](unsigned) { ran_b.fetch_add(1); });

    SweepPool::Ticket a = pool.submit(0, std::move(a_tasks));
    SweepPool::Ticket b = pool.submit(0, std::move(b_tasks));
    while (!first_running.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Returns once the running task is done; the slot stays usable.
    EXPECT_THROW(pool.wait(std::move(a), true), core::JobCancelled);
    EXPECT_EQ(ran_a.load(), 1);
    EXPECT_NO_THROW(pool.wait(std::move(b)));
    EXPECT_EQ(ran_b.load(), 2);
    EXPECT_EQ(pool.stats().tasksCancelled, 3u);
    EXPECT_EQ(pool.stats().queuedTasks, 0u);
}

TEST(SweepPoolTest, NestedSubmitStopsAtTheFirstErrorAndWaitRethrows)
{
    SweepPool pool(2);
    std::atomic<int> inner_runs{0};
    std::vector<SweepPool::Task> outer;
    outer.push_back([&pool, &inner_runs](unsigned) {
        std::vector<SweepPool::Task> inner;
        inner.push_back(
            [&inner_runs](unsigned) { inner_runs.fetch_add(1); });
        inner.push_back([](unsigned) {
            throw std::runtime_error("inner error");
        });
        inner.push_back(
            [&inner_runs](unsigned) { inner_runs.fetch_add(1); });
        // Inline: the batch has run by the time submit returns.
        SweepPool::Ticket t = pool.submit(0, std::move(inner));
        EXPECT_EQ(inner_runs.load(), 1);
        EXPECT_THROW(pool.wait(std::move(t)), std::runtime_error);
    });
    pool.wait(pool.submit(0, std::move(outer)));
    EXPECT_EQ(inner_runs.load(), 1);
}

TEST(SweepPoolTest, OverlappingBatchesCountIdleOncePerWorker)
{
    obs::prof::setEnabled(true);
    obs::globalMetrics().reset();
    const auto t0 = std::chrono::steady_clock::now();
    {
        SweepPool pool(2);
        const auto sleepy = [] {
            std::vector<SweepPool::Task> tasks;
            for (int i = 0; i < 6; ++i) {
                tasks.push_back([](unsigned) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(3));
                });
            }
            return tasks;
        };
        SweepPool::Ticket a = pool.submit(0, sleepy());
        SweepPool::Ticket b = pool.submit(0, sleepy());
        pool.wait(std::move(a));
        pool.wait(std::move(b));
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    obs::prof::setEnabled(false);

    const auto workers = obs::globalMetrics().workers();
    ASSERT_EQ(workers.size(), 2u);
    std::uint64_t tasks = 0;
    for (const auto &w : workers) {
        EXPECT_GT(w.busySeconds, 0.0);
        EXPECT_LE(w.busySeconds + w.idleSeconds, wall + 1e-6);
        tasks += w.jobs;
    }
    EXPECT_EQ(tasks, 12u);
    obs::globalMetrics().reset();
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

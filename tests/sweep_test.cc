/**
 * @file
 * Tests for the parallel sweep engine: results must be bit-identical to
 * the legacy serial loop for every worker count, exceptions must
 * propagate, worker-count resolution must honour C8T_JOBS, nested
 * sweeps must run on the calling worker's pool, a started sweep must
 * be abandoned before it is destroyed, one sweeper must keep one pool
 * across its sweeps, and the architectural memory-equivalence property
 * must hold through the parallel path exactly as it does serially.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "core/worker_pool.hh"
#include "obs/prof.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::ControllerConfig;
using core::ParallelSweeper;
using core::RunConfig;
using core::SchemeRunResult;
using core::SweepJob;
using core::WriteScheme;

const std::vector<const char *> kProfiles = {"bwaves", "gamess", "mcf",
                                             "lbm",    "sjeng",  "sphinx3"};
const std::vector<WriteScheme> kSchemes = {
    WriteScheme::Rmw, WriteScheme::WriteGrouping,
    WriteScheme::WriteGroupingReadBypass};
constexpr RunConfig kRc{2'000, 10'000};

std::vector<ControllerConfig>
configsFor(const std::vector<WriteScheme> &schemes)
{
    std::vector<ControllerConfig> cfgs;
    for (WriteScheme s : schemes) {
        ControllerConfig c;
        c.scheme = s;
        cfgs.push_back(c);
    }
    return cfgs;
}

std::vector<SweepJob>
makeJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *name : kProfiles) {
        SweepJob job;
        job.makeGenerator = [name] {
            return std::make_unique<trace::MarkovStream>(
                trace::specProfile(name));
        };
        job.configs = configsFor(kSchemes);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** The historical serial loop, verbatim: one generator and one
 *  MultiSchemeRunner per profile, run back to back. */
std::vector<std::vector<SchemeRunResult>>
runSerialReference()
{
    std::vector<std::vector<SchemeRunResult>> out;
    for (const char *name : kProfiles) {
        trace::MarkovStream gen(trace::specProfile(name));
        core::MultiSchemeRunner runner(configsFor(kSchemes));
        out.push_back(runner.run(gen, kRc));
    }
    return out;
}

TEST(ParallelSweeper, BitIdenticalToSerialLoopForAnyWorkerCount)
{
    const auto reference = runSerialReference();
    for (unsigned workers : {1u, 2u, 8u}) {
        const ParallelSweeper sweeper(workers);
        EXPECT_EQ(sweeper.workers(), workers);
        const auto parallel = sweeper.run(makeJobs(), kRc, "test_sweep");
        ASSERT_EQ(parallel.size(), reference.size()) << workers;
        for (std::size_t p = 0; p < reference.size(); ++p) {
            ASSERT_EQ(parallel[p].size(), reference[p].size());
            for (std::size_t s = 0; s < reference[p].size(); ++s) {
                EXPECT_TRUE(parallel[p][s] == reference[p][s])
                    << workers << " workers, profile " << kProfiles[p]
                    << ", scheme " << reference[p][s].scheme;
            }
        }
    }
}

TEST(ParallelSweeper, RepeatedRunsAreBitIdentical)
{
    const ParallelSweeper sweeper(2);
    const auto first = sweeper.run(makeJobs(), kRc, "test_repeat");
    const auto second = sweeper.run(makeJobs(), kRc, "test_repeat");
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t p = 0; p < first.size(); ++p)
        EXPECT_TRUE(first[p] == second[p]) << kProfiles[p];
}

TEST(ParallelSweeper, JobExceptionsPropagateToCaller)
{
    std::vector<SweepJob> jobs = makeJobs();
    jobs[1].makeGenerator = []() -> std::unique_ptr<trace::AccessGenerator> {
        throw std::runtime_error("broken workload");
    };
    const ParallelSweeper sweeper(2);
    EXPECT_THROW(sweeper.run(jobs, kRc, "test_throw"), std::runtime_error);

    SweepJob empty;
    empty.makeGenerator = nullptr;
    EXPECT_THROW(ParallelSweeper(1).run({empty}, kRc),
                 std::invalid_argument);
}

TEST(ParallelSweeper, OneWorkerRunsEveryJobBeforeRethrowing)
{
    // A one-worker sweep is a one-thread pool: the batch drains before
    // the first error reaches the caller, with its original type.
    std::vector<SweepJob> jobs = makeJobs();
    jobs[0].makeGenerator = []() -> std::unique_ptr<trace::AccessGenerator> {
        throw std::out_of_range("first job fails");
    };
    std::vector<bool> inspected(jobs.size(), false);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        jobs[i].inspect = [&inspected, i](core::MultiSchemeRunner &) {
            inspected[i] = true;
        };
    }
    EXPECT_THROW(ParallelSweeper(1).run(jobs, kRc, "test_drain"),
                 std::out_of_range);
    for (std::size_t i = 1; i < jobs.size(); ++i)
        EXPECT_TRUE(inspected[i]) << i;
}

TEST(ParallelSweeper, UnfinishedSweepIsAbandonedBeforeItIsDestroyed)
{
    // Sweep A fails while sweep B is queued behind it: finishing A
    // throws, and destroying B unfinished drops its unclaimed jobs and
    // waits for the running ones (they write into B's state) instead
    // of leaving them running.
    std::vector<SweepJob> failing = makeJobs();
    failing[0].makeGenerator =
        []() -> std::unique_ptr<trace::AccessGenerator> {
        throw std::runtime_error("broken workload");
    };
    std::atomic<int> b_started{0};
    std::atomic<int> b_done{0};
    std::vector<SweepJob> queued = makeJobs();
    for (SweepJob &job : queued) {
        job.makeGenerator = [make = job.makeGenerator, &b_started] {
            b_started.fetch_add(1);
            return make();
        };
        job.inspect = [&b_done](core::MultiSchemeRunner &) {
            b_done.fetch_add(1);
        };
    }
    const ParallelSweeper sweeper(2);
    {
        core::PendingSweep a = sweeper.start(failing, kRc, "a");
        core::PendingSweep b = sweeper.start(queued, kRc, "b");
        EXPECT_THROW(a.finish(), std::runtime_error);
    }
    const int started = b_started.load();
    EXPECT_LE(started, static_cast<int>(queued.size()));
    EXPECT_EQ(b_done.load(), started);

    // A finished sweep and an empty one finish to nothing more.
    core::PendingSweep done = sweeper.start(queued, kRc, "c");
    EXPECT_EQ(done.finish().size(), queued.size());
    EXPECT_TRUE(done.finish().empty());
    EXPECT_TRUE(sweeper.start({}, kRc, "empty").finish().empty());
}

TEST(ParallelSweeper, OneSweeperKeepsOnePoolAcrossSweeps)
{
    // A one-worker sweeper runs both sweeps on the same thread: the
    // second sweep's job sees what the first left in a thread-local.
    thread_local int t_jobs = 0;
    std::vector<int> seen;
    std::vector<SweepJob> jobs = makeJobs();
    jobs.resize(1);
    jobs[0].inspect = [&seen](core::MultiSchemeRunner &) {
        seen.push_back(t_jobs++);
    };
    const ParallelSweeper sweeper(1);
    sweeper.run(jobs, kRc, "first");
    sweeper.run(jobs, kRc, "second");
    EXPECT_EQ(seen, (std::vector<int>{0, 1}));
}

TEST(ParallelSweeper, EmptyJobListReturnsWithoutSubmitting)
{
    // SweepPool(0) auto-sizes to the hardware, so an empty list must
    // return before any pool is chosen: nothing reaches an installed
    // pool either.
    EXPECT_TRUE(ParallelSweeper(4).run({}, kRc, "empty").empty());

    core::SweepPool shared(2);
    core::setGlobalSweepPool(&shared);
    EXPECT_TRUE(ParallelSweeper(4).run({}, kRc, "empty").empty());
    core::setGlobalSweepPool(nullptr);
    EXPECT_EQ(shared.stats().batches, 0u);
    EXPECT_EQ(shared.stats().tasksRun, 0u);
}

/**
 * A sweep started from a job's inspect hook runs on the calling
 * worker's pool (inline on that worker). Outer and inner results must
 * equal the un-nested runs for every outer/inner worker count, with
 * and without an installed global pool. The profiler is on so the
 * per-worker busy/idle rollup, indexed by each span's worker, runs
 * for the nested sweeps too (ASan checks the indices).
 */
TEST(ParallelSweeper, NestedSweepsMatchUnnestedRuns)
{
    constexpr RunConfig rc{500, 2'000};
    const auto reference = ParallelSweeper(1).run(makeJobs(), rc, "ref");
    const bool prof_was_on = obs::prof::enabled();
    obs::prof::setEnabled(true);

    for (const bool install : {false, true}) {
        std::optional<core::SweepPool> shared;
        if (install)
            core::setGlobalSweepPool(&shared.emplace(3));
        for (unsigned outer : {1u, 2u, 4u}) {
            for (unsigned inner : {1u, 2u, 4u}) {
                std::vector<SweepJob> jobs = makeJobs();
                std::vector<std::vector<std::vector<SchemeRunResult>>>
                    nested(jobs.size());
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    jobs[i].inspect = [&nested, i, inner,
                                       rc](core::MultiSchemeRunner &) {
                        nested[i] = ParallelSweeper(inner).run(
                            makeJobs(), rc, "inner");
                    };
                }
                const auto got =
                    ParallelSweeper(outer).run(jobs, rc, "outer");
                EXPECT_TRUE(got == reference)
                    << "global " << install << ", outer " << outer
                    << ", inner " << inner;
                for (std::size_t i = 0; i < nested.size(); ++i) {
                    EXPECT_TRUE(nested[i] == reference)
                        << "global " << install << ", outer " << outer
                        << ", inner " << inner << ", job " << i;
                }
            }
        }
        if (install)
            core::setGlobalSweepPool(nullptr);
    }
    obs::prof::setEnabled(prof_was_on);
    obs::prof::takeThreadTimes();
}

TEST(ParallelSweeper, WorkerCountResolutionHonoursEnv)
{
    ::unsetenv("C8T_JOBS");
    const unsigned hw_default = ParallelSweeper::defaultWorkers();
    EXPECT_GE(hw_default, 1u);

    ::setenv("C8T_JOBS", "3", 1);
    EXPECT_EQ(ParallelSweeper::defaultWorkers(), 3u);
    EXPECT_EQ(ParallelSweeper().workers(), 3u);

    // Garbage, zero and out-of-range values fall back to the hardware
    // default instead of being half-parsed.
    for (const char *bad : {"abc", "3x", "0", "-2", "", "99999999"}) {
        ::setenv("C8T_JOBS", bad, 1);
        EXPECT_EQ(ParallelSweeper::defaultWorkers(), hw_default) << bad;
    }
    ::unsetenv("C8T_JOBS");

    // An explicit worker count always wins.
    ::setenv("C8T_JOBS", "7", 1);
    EXPECT_EQ(ParallelSweeper(2).workers(), 2u);
    ::unsetenv("C8T_JOBS");
}

TEST(ParallelSweeper, ProgressResolutionHonoursEnv)
{
    ::unsetenv("C8T_PROGRESS");
    EXPECT_FALSE(ParallelSweeper::defaultProgress());
    EXPECT_FALSE(ParallelSweeper(1).progress());

    ::setenv("C8T_PROGRESS", "1", 1);
    EXPECT_TRUE(ParallelSweeper::defaultProgress());
    EXPECT_TRUE(ParallelSweeper(1).progress());

    ::setenv("C8T_PROGRESS", "0", 1);
    EXPECT_FALSE(ParallelSweeper::defaultProgress());
    ::unsetenv("C8T_PROGRESS");

    ParallelSweeper s(1);
    s.setProgress(true);
    EXPECT_TRUE(s.progress());
}

TEST(ParallelSweeper, HeartbeatReportsCompletedJobs)
{
    ::unsetenv("C8T_PROGRESS");
    ParallelSweeper sweeper(2);
    sweeper.setProgress(true);

    testing::internal::CaptureStderr();
    sweeper.run(makeJobs(), kRc, "hb");
    const std::string err = testing::internal::GetCapturedStderr();

    // The final (never-throttled) line reports all jobs done.
    const std::string want = "[sweep hb] " +
                             std::to_string(kProfiles.size()) + "/" +
                             std::to_string(kProfiles.size()) + " jobs";
    EXPECT_NE(err.find(want), std::string::npos) << err;
    EXPECT_NE(err.find("acc/s"), std::string::npos) << err;

    // Off by default: a plain run stays silent.
    testing::internal::CaptureStderr();
    ParallelSweeper(2).run(makeJobs(), kRc, "quiet");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(ParallelSweeper, PrepareHookRunsBeforeTheRun)
{
    std::vector<SweepJob> jobs = makeJobs();
    std::vector<std::uint64_t> requests_at_prepare(jobs.size(), 1);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].prepare = [&requests_at_prepare,
                           i](core::MultiSchemeRunner &r) {
            requests_at_prepare[i] = r.controller(0).requests();
        };
    }
    ParallelSweeper(2).run(jobs, kRc, "prepare");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(requests_at_prepare[i], 0u) << i;
}

TEST(ParallelSweeper, SpecSweepJobsCoverEveryProfile)
{
    const auto jobs = core::specSweepJobs(mem::CacheConfig{}, kSchemes);
    EXPECT_EQ(jobs.size(), trace::specProfiles().size());
    for (const auto &job : jobs) {
        EXPECT_TRUE(static_cast<bool>(job.makeGenerator));
        EXPECT_EQ(job.configs.size(), kSchemes.size());
    }
}

/**
 * The WG / WG+RB vs RMW memory-state equivalence property, run through
 * the parallel engine: after drain + flush, every written word must
 * equal the generator's architectural shadow value under every scheme.
 * State is captured on the worker thread via the inspect hook and
 * asserted on the main thread (the join provides the happens-before).
 */
class ParallelEquivalence : public ::testing::TestWithParam<const char *>
{};

TEST_P(ParallelEquivalence, MemoryStateMatchesShadowThroughParallelPath)
{
    // Oracle: replay the stream once to learn the written words and the
    // final architectural values.
    trace::MarkovStream oracle(trace::specProfile(GetParam()));
    trace::MemAccess a;
    std::set<std::uint64_t> written;
    for (std::uint64_t i = 0; i < kRc.warmupAccesses + kRc.measureAccesses;
         ++i) {
        ASSERT_TRUE(oracle.next(a));
        if (a.isWrite())
            written.insert(a.addr & ~7ull);
    }

    // Two identical jobs so the 2-worker pool actually runs threaded;
    // each captures every controller's post-flush view of the words.
    const char *name = GetParam();
    std::vector<std::vector<std::vector<std::uint64_t>>> captured(2);
    std::vector<SweepJob> jobs(2);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].makeGenerator = [name] {
            return std::make_unique<trace::MarkovStream>(
                trace::specProfile(name));
        };
        jobs[j].configs = configsFor(kSchemes);
        jobs[j].inspect = [&captured, &written,
                           j](core::MultiSchemeRunner &runner) {
            captured[j].resize(runner.controllers());
            for (std::size_t c = 0; c < runner.controllers(); ++c) {
                runner.controller(c).flushCacheToMemory();
                for (const std::uint64_t addr : written)
                    captured[j][c].push_back(
                        runner.controller(c).peekWord(addr));
            }
        };
    }
    const auto results = ParallelSweeper(2).run(jobs, kRc, "test_equiv");
    ASSERT_EQ(results.size(), 2u);

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        ASSERT_EQ(captured[j].size(), kSchemes.size());
        for (std::size_t c = 0; c < kSchemes.size(); ++c) {
            std::size_t w = 0;
            for (const std::uint64_t addr : written) {
                ASSERT_EQ(captured[j][c][w], oracle.shadowValue(addr))
                    << "job " << j << ", scheme " << results[j][c].scheme
                    << ", word 0x" << std::hex << addr;
                ++w;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ParallelEquivalence,
                         ::testing::Values("bwaves", "mcf", "sphinx3"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // anonymous namespace

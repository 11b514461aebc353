/**
 * @file
 * obs::prof / obs::Metrics: phase attribution, golden exports, and
 * the profiling-changes-nothing guarantee (the sweep produces
 * byte-identical results with the profiler on and off).
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/event_ring.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::ControllerConfig;
using core::MultiSchemeRunner;
using core::ParallelSweeper;
using core::RunConfig;
using core::SchemeRunResult;
using core::SweepJob;
using core::WriteScheme;
using obs::Metrics;
using obs::prof::Phase;
using obs::prof::PhaseTimes;
using obs::prof::ScopedPhase;

/** Restore the profiler's disabled default whatever the test does. */
struct ProfGuard
{
    ~ProfGuard()
    {
        obs::prof::setEnabled(false);
        obs::prof::takeThreadTimes();
    }
};

/** Busy-wait until the steady clock has visibly advanced, so every
 *  open phase accrues a strictly positive self time even on coarse
 *  clocks. */
void
spinPastClockTick()
{
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() == t0) {
    }
}

// ---------------------------------------------------------------------
// Phase timers.
// ---------------------------------------------------------------------

TEST(Prof, DisabledScopesRecordNothing)
{
    ProfGuard guard;
    obs::prof::setEnabled(false);
    obs::prof::takeThreadTimes();
    {
        ScopedPhase outer(Phase::Replay);
        spinPastClockTick();
        ScopedPhase inner(Phase::Plan);
        spinPastClockTick();
    }
    EXPECT_TRUE(obs::prof::threadTimes().empty());
    // The hoisted-flag overload must honour the flag, not the global.
    obs::prof::setEnabled(true);
    {
        ScopedPhase off(Phase::Energy, false);
        spinPastClockTick();
    }
    EXPECT_TRUE(obs::prof::threadTimes().empty());
}

TEST(Prof, NestedScopesAttributeSelfTimeWithoutDoubleCounting)
{
    ProfGuard guard;
    obs::prof::setEnabled(true);
    obs::prof::takeThreadTimes();
    {
        ScopedPhase outer(Phase::Replay);
        spinPastClockTick();
        {
            ScopedPhase inner(Phase::Plan);
            spinPastClockTick();
        }
        spinPastClockTick();
    }
    const PhaseTimes t = obs::prof::takeThreadTimes();
    const auto idx = [](Phase p) { return static_cast<std::size_t>(p); };
    EXPECT_EQ(t.scopes[idx(Phase::Replay)], 1u);
    EXPECT_EQ(t.scopes[idx(Phase::Plan)], 1u);
    EXPECT_GT(t.ns[idx(Phase::Replay)], 0u);
    EXPECT_GT(t.ns[idx(Phase::Plan)], 0u);
    // Self-time partition: only the two entered phases hold time.
    EXPECT_EQ(t.totalNs(),
              t.ns[idx(Phase::Replay)] + t.ns[idx(Phase::Plan)]);
    // And the take reset the thread-local accumulator.
    EXPECT_TRUE(obs::prof::threadTimes().empty());
}

TEST(Prof, PhaseNamesAreStableExportKeys)
{
    EXPECT_STREQ(obs::prof::toString(Phase::StreamGenerate),
                 "stream_generate");
    EXPECT_STREQ(obs::prof::toString(Phase::Plan), "plan");
    EXPECT_STREQ(obs::prof::toString(Phase::Replay), "replay");
    EXPECT_STREQ(obs::prof::toString(Phase::Energy), "energy");
    EXPECT_STREQ(obs::prof::toString(Phase::FaultMap), "fault_map");
    EXPECT_STREQ(obs::prof::toString(Phase::Serialize), "serialize");
}

// ---------------------------------------------------------------------
// Export goldens. Seconds values go through the same ns * 1e-9
// conversion and stats::jsonNumber formatting as the implementation,
// so the goldens pin placement and structure without baking in
// float-printing artifacts.
// ---------------------------------------------------------------------

std::string
fmtNum(double v)
{
    std::ostringstream os;
    stats::jsonNumber(os, v);
    return os.str();
}

std::string
fmtSec(std::uint64_t ns)
{
    return fmtNum(static_cast<double>(ns) * 1e-9);
}

/** Inject one exactly-known state into a fresh registry. */
void
injectKnownState(Metrics &m)
{
    PhaseTimes t;
    t.ns[static_cast<std::size_t>(Phase::Replay)] = 250'000'000;
    t.scopes[static_cast<std::size_t>(Phase::Replay)] = 4;
    t.ns[static_cast<std::size_t>(Phase::StreamGenerate)] = 1'500'000'000;
    t.scopes[static_cast<std::size_t>(Phase::StreamGenerate)] = 2;
    m.addPhaseTimes(t);

    m.recordJobWallNs(1000);
    m.recordJobWallNs(1000);

    Metrics::StreamCacheStats sc;
    sc.hits = 75;
    sc.misses = 25;
    sc.bypasses = 3;
    sc.evictions = 1;
    sc.entries = 4;
    sc.bytes = 65536;
    m.setStreamCache(sc);

    Metrics::SweepSnapshot sw;
    sw.jobsDone = 18;
    sw.jobsTotal = 18;
    sw.queueDepth = 0;
    sw.jobsPerSec = 4.5;
    sw.etaSeconds = 0.0;
    sw.workers = 2;
    m.noteSweep(sw);

    m.noteWorker(1, 1.5, 0.5, 3);
}

TEST(Metrics, PrometheusExpositionGolden)
{
    ProfGuard guard;
    obs::prof::setEnabled(false);
    Metrics m;
    injectKnownState(m);

    std::ostringstream os;
    m.writePrometheus(os);
    const std::string out = os.str();

    const std::vector<std::string> expected_lines = {
             std::string("c8t_profiling_enabled 0\n"),
             "c8t_phase_seconds_total{phase=\"replay\"} " +
                 fmtSec(250'000'000) + "\n",
             "c8t_phase_seconds_total{phase=\"stream_generate\"} " +
                 fmtSec(1'500'000'000) + "\n",
             std::string("c8t_phase_seconds_total{phase=\"plan\"} 0\n"),
             std::string("c8t_phase_scopes_total{phase=\"replay\"} 4\n"),
             std::string("c8t_phase_scopes_total{phase=\"serialize\"} 0\n"),
             "c8t_job_wall_seconds{quantile=\"0.5\"} " + fmtSec(1000) +
                 "\n",
             "c8t_job_wall_seconds_sum " + fmtSec(2000) + "\n",
             std::string("c8t_job_wall_seconds_count 2\n"),
             "c8t_job_wall_seconds_max " + fmtSec(1000) + "\n",
             std::string("c8t_chunk_replay_seconds_count 0\n"),
             std::string("c8t_stream_cache_hits_total 75\n"),
             std::string("c8t_stream_cache_misses_total 25\n"),
             std::string("c8t_stream_cache_bypasses_total 3\n"),
             std::string("c8t_stream_cache_evictions_total 1\n"),
             std::string("c8t_stream_cache_hit_ratio 0.75\n"),
             std::string("c8t_stream_cache_entries 4\n"),
             std::string("c8t_stream_cache_resident_bytes 65536\n"),
             std::string("c8t_sweep_jobs 18\n"),
             std::string("c8t_sweep_jobs_done 18\n"),
             std::string("c8t_sweep_queue_depth 0\n"),
             std::string("c8t_sweep_jobs_per_second 4.5\n"),
             std::string("c8t_sweep_eta_seconds 0\n"),
             std::string("c8t_sweep_workers 2\n"),
             std::string("c8t_worker_busy_seconds_total{worker=\"0\"} 0\n"),
             "c8t_worker_busy_seconds_total{worker=\"1\"} " + fmtNum(1.5) +
                 "\n",
             "c8t_worker_idle_seconds_total{worker=\"1\"} " + fmtNum(0.5) +
                 "\n",
             std::string("c8t_worker_jobs_total{worker=\"1\"} 3\n"),
    };
    for (const std::string &line : expected_lines)
        EXPECT_NE(out.find(line), std::string::npos) << line;
    // Every family is announced (HELP + TYPE precede the samples).
    EXPECT_NE(out.find("# TYPE c8t_phase_seconds_total counter"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE c8t_job_wall_seconds summary"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE c8t_sweep_workers gauge"),
              std::string::npos);
}

TEST(Metrics, ProfileJsonGolden)
{
    Metrics m;
    injectKnownState(m);
    std::ostringstream os;
    m.writeProfileJson(os);

    // Exact document: injected values are deterministic, so this is a
    // full-string golden (numbers formatted by the same helper).
    const std::string expected =
        "{\"phases\":{"
        "\"stream_generate\":{\"seconds\":" + fmtSec(1'500'000'000) +
        ",\"scopes\":2},"
        "\"plan\":{\"seconds\":0,\"scopes\":0},"
        "\"replay\":{\"seconds\":" + fmtSec(250'000'000) +
        ",\"scopes\":4},"
        "\"energy\":{\"seconds\":0,\"scopes\":0},"
        "\"fault_map\":{\"seconds\":0,\"scopes\":0},"
        "\"serialize\":{\"seconds\":0,\"scopes\":0}"
        "},\"total_seconds\":" + fmtSec(1'750'000'000) +
        ",\"histograms\":{"
        "\"job_wall_us\":{\"count\":2,\"mean\":1,\"p50\":1,\"p95\":1,"
        "\"p99\":1,\"max\":1},"
        "\"chunk_replay_us\":{\"count\":0,\"mean\":0,\"p50\":0,"
        "\"p95\":0,\"p99\":0,\"max\":0},"
        "\"shard_wall_us\":{\"count\":0,\"mean\":0,\"p50\":0,"
        "\"p95\":0,\"p99\":0,\"max\":0}"
        "}}";
    EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, ResetDropsEverything)
{
    Metrics m;
    injectKnownState(m);
    m.reset();
    EXPECT_TRUE(m.phaseTimes().empty());
    EXPECT_EQ(m.jobWall().count(), 0u);
    EXPECT_EQ(m.shardWall().count(), 0u);
    EXPECT_EQ(m.sweep().jobsTotal, 0u);
    EXPECT_EQ(m.explorer().shardsTotal, 0u);
    EXPECT_TRUE(m.workers().empty());
    EXPECT_EQ(m.streamCache().hits, 0u);
}

// ---------------------------------------------------------------------
// Profiling changes nothing: the whole sweep pipeline must produce
// byte-identical results with the profiler on and off (ISSUE 7
// acceptance criterion; the ci.sh metrics stage enforces the same at
// the fig11 binary level).
// ---------------------------------------------------------------------

const std::vector<const char *> kProfiles = {"bwaves", "mcf", "sjeng"};
const std::vector<WriteScheme> kSchemes = {
    WriteScheme::Rmw, WriteScheme::WriteGrouping,
    WriteScheme::WriteGroupingReadBypass};
constexpr RunConfig kRc{2'000, 10'000};

std::vector<ControllerConfig>
configsFor()
{
    std::vector<ControllerConfig> cfgs;
    for (WriteScheme s : kSchemes) {
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
        job.configs = configsFor();
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(Metrics, ProfilingChangesNothing)
{
    ProfGuard guard;

    // Reference: profiler off.
    obs::prof::setEnabled(false);
    const auto reference =
        ParallelSweeper(1).run(makeJobs(), kRc, "prof_off");

    // Same sweep with the profiler on, across worker counts.
    obs::prof::setEnabled(true);
    for (unsigned workers : {1u, 2u, 8u}) {
        const auto profiled =
            ParallelSweeper(workers).run(makeJobs(), kRc, "prof_on");
        ASSERT_EQ(profiled.size(), reference.size()) << workers;
        for (std::size_t p = 0; p < reference.size(); ++p) {
            ASSERT_EQ(profiled[p].size(), reference[p].size());
            for (std::size_t s = 0; s < reference[p].size(); ++s) {
                EXPECT_TRUE(profiled[p][s] == reference[p][s])
                    << workers << " workers, profile " << kProfiles[p]
                    << ", scheme " << reference[p][s].scheme;
            }
        }
    }
}

/** One single-scheme run capturing the stats-registry JSON dump and
 *  the event-ring type totals. */
struct ObservedRun
{
    std::string statsJson;
    std::array<std::uint64_t, obs::kEventTypes> eventTotals{};
};

ObservedRun
observeRun()
{
    ObservedRun out;
    obs::EventRing ring(64);
    trace::MarkovStream gen(trace::specProfile("mcf"));
    MultiSchemeRunner runner(configsFor());
    for (std::size_t i = 0; i < runner.controllers(); ++i)
        runner.controller(i).attachEventRing(&ring);
    runner.run(gen, kRc);
    std::ostringstream os;
    for (std::size_t i = 0; i < runner.controllers(); ++i) {
        // One registry per controller: stat names repeat per scheme.
        stats::Registry reg;
        runner.controller(i).registerStats(reg);
        reg.dumpJson(os);
    }
    out.statsJson = os.str();
    out.eventTotals = ring.typeCounts();
    return out;
}

TEST(Metrics, ProfilingLeavesStatsJsonAndEventTotalsIdentical)
{
    ProfGuard guard;
    obs::prof::setEnabled(false);
    const ObservedRun off = observeRun();
    obs::prof::setEnabled(true);
    const ObservedRun on = observeRun();
    EXPECT_EQ(off.statsJson, on.statsJson);
    EXPECT_EQ(off.eventTotals, on.eventTotals);
}

TEST(Metrics, SweepPopulatesTheGlobalRegistry)
{
    ProfGuard guard;
    obs::globalMetrics().reset();
    obs::prof::setEnabled(true);

    const auto jobs = makeJobs();
    // Larger window than the identity tests: phase coverage is a
    // ratio against job wall, and with tiny jobs the uninstrumented
    // fixed cost (runner construction) is a visible fraction.
    constexpr RunConfig big_rc{5'000, 50'000};
    ParallelSweeper(2).run(jobs, big_rc, "metrics_fill");

    Metrics &m = obs::globalMetrics();
    const PhaseTimes phases = m.phaseTimes();
    EXPECT_GT(phases.totalNs(), 0u);
    EXPECT_GT(phases.scopes[static_cast<std::size_t>(Phase::Replay)], 0u);

    // One job-wall sample per job; phases must cover the bulk of the
    // summed job wall (the taxonomy leaves no big anonymous gaps).
    // The bound is looser than the >= 95 % measured on the real fig11
    // sweep (EXPERIMENTS.md): these jobs are milliseconds long, so
    // construction cost and test-harness scheduling noise weigh more.
    const obs::Histogram wall = m.jobWall();
    EXPECT_EQ(wall.count(), jobs.size());
    EXPECT_GE(static_cast<double>(phases.totalNs()),
              0.85 * static_cast<double>(wall.sum()));

    EXPECT_GT(m.chunkReplay().count(), 0u);

    const Metrics::SweepSnapshot sw = m.sweep();
    EXPECT_EQ(sw.jobsDone, jobs.size());
    EXPECT_EQ(sw.jobsTotal, jobs.size());
    EXPECT_EQ(sw.queueDepth, 0u);
    EXPECT_EQ(sw.workers, 2u);
    EXPECT_GT(sw.jobsPerSec, 0.0);

    const auto workers = m.workers();
    ASSERT_EQ(workers.size(), 2u);
    std::uint64_t jobs_seen = 0;
    for (const auto &w : workers)
        jobs_seen += w.jobs;
    EXPECT_EQ(jobs_seen, jobs.size());

    obs::globalMetrics().reset();
}

TEST(Metrics, PipelinedExploreCountsEachWorkersIdleOnce)
{
    // Two shards are in flight on the explore's one pool, so a
    // per-sweep idle figure would count the overlap twice and push a
    // worker's busy + idle past the explore's wall time.
    ProfGuard guard;
    obs::globalMetrics().reset();
    obs::prof::setEnabled(true);

    core::ExplorerSpec spec;
    spec.label = "metrics_explore";
    spec.workloads = {"gcc", "mcf"};
    spec.sizesKb = {16, 32};
    spec.ways = {2, 4};
    spec.blocks = {32};
    spec.replacements = {mem::ReplKind::Lru};
    spec.schemes = {WriteScheme::Rmw, WriteScheme::WriteGroupingReadBypass};
    spec.vddGrid = {1.0, 0.8};
    spec.cellsPerShard = 2;
    spec.faultRows = 128;
    const auto t0 = std::chrono::steady_clock::now();
    const core::ExploreResult r = core::runExplore(spec, {500, 3'000}, 2);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    ASSERT_TRUE(r.completed);

    Metrics &m = obs::globalMetrics();
    EXPECT_EQ(m.shardWall().count(), r.shardsExecuted);
    const auto workers = m.workers();
    ASSERT_EQ(workers.size(), 2u);
    for (std::size_t w = 0; w < workers.size(); ++w) {
        EXPECT_GT(workers[w].busySeconds, 0.0) << w;
        EXPECT_LE(workers[w].busySeconds + workers[w].idleSeconds,
                  wall + 1e-6)
            << w;
    }
    obs::globalMetrics().reset();
}

} // namespace

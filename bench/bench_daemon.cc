/**
 * @file
 * c8td sweep-service soak (DESIGN.md §13): one in-process daemon,
 * N concurrent clients pipelining thousands of mixed run / Vdd-sweep
 * jobs over its Unix socket.
 *
 * Two phases over the same unique-spec mix:
 *
 *  - cold: every unique spec exactly once, fanned across the clients
 *    (nothing cached — the stream cache, fault memo and whole-result
 *    memo all start empty);
 *  - warm soak: every client loops the full mix for enough rounds to
 *    clear the job target (default 2000), so nearly every request is
 *    answered from the daemon's caches.
 *
 * Reported: aggregate jobs/s and served config-runs/s per phase, the
 * warm-over-cold per-job speedup (the memoization claim, measured —
 * the acceptance floor is 1.3x) and client-observed p50/p99/p999 job
 * latency from the warm soak. perfbench's daemon_mix workload replays
 * the same mix as the repository benchmark.
 *
 * The per-job window defaults to 20,000 measured accesses (small on
 * purpose: the soak is about service overhead and cache reuse, not
 * steady-state replay rate); C8T_BENCH_ACCESSES overrides it, and
 * C8T_BENCH_CLIENTS / C8T_BENCH_DAEMON_JOBS size the fleet and the
 * warm-phase job target.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/common.hh"
#include "core/decimal.hh"
#include "core/job_spec.hh"
#include "core/vdd_sweep.hh"
#include "net/client.hh"
#include "net/daemon.hh"
#include "obs/histogram.hh"
#include "stats/table.hh"

namespace
{

using namespace c8t;
using Clock = std::chrono::steady_clock;

/** Positive-integer env override with a parse-failure warning. */
std::size_t
envCount(const char *name, std::size_t fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    const auto v = core::parseDecimal(env);
    if (!v || *v == 0) {
        std::cerr << "bench_daemon: ignoring invalid " << name << "=\""
                  << env << "\" (want a positive integer)\n";
        return fallback;
    }
    return static_cast<std::size_t>(*v);
}

/** One entry of the job mix: the wire spec plus its served weight. */
struct MixEntry
{
    std::string json;        ///< request payload (one JobSpec)
    std::uint64_t configRuns; ///< config-runs this spec represents
};

/** Build the unique-spec mix: runs over workloads x sizes + Vdd sweeps. */
std::vector<MixEntry>
buildMix(std::uint64_t accesses)
{
    std::vector<MixEntry> mix;
    const std::vector<std::string> names = trace::specBenchmarkNames();
    const std::size_t workloads = std::min<std::size_t>(names.size(), 8);
    const std::uint64_t gridPoints = core::VddSweepSpec{}.grid.size();
    for (std::size_t w = 0; w < workloads; ++w) {
        for (const unsigned kb : {16u, 32u}) {
            MixEntry e;
            e.json = "{\"kind\":\"run\",\"workload\":\"spec:" +
                     names[w] + "\",\"accesses\":" +
                     std::to_string(accesses) +
                     ",\"cache\":{\"size_kb\":" + std::to_string(kb) +
                     "}}";
            e.configRuns = core::JobSpec::fromJsonText(e.json)
                               .effectiveSchemes()
                               .size();
            mix.push_back(std::move(e));
        }
    }
    for (std::size_t w = 0; w < std::min<std::size_t>(workloads, 2);
         ++w) {
        MixEntry e;
        e.json = "{\"kind\":\"vdd_sweep\",\"workload\":\"spec:" +
                 names[w] + "\",\"accesses\":" +
                 std::to_string(accesses) + "}";
        e.configRuns = core::JobSpec::fromJsonText(e.json)
                           .effectiveSchemes()
                           .size() *
                       gridPoints;
        mix.push_back(std::move(e));
    }
    return mix;
}

/** Per-phase aggregate over every client. */
struct PhaseResult
{
    std::uint64_t jobs = 0;
    std::uint64_t configRuns = 0;
    double wallSeconds = 0.0;
    obs::Histogram latencyNs;

    double jobsPerSec() const
    {
        return wallSeconds > 0.0 ? jobs / wallSeconds : 0.0;
    }
    double configRunsPerSec() const
    {
        return wallSeconds > 0.0 ? configRuns / wallSeconds : 0.0;
    }
    /** Quantile in microseconds. */
    double quantileUs(double q) const
    {
        return static_cast<double>(latencyNs.quantile(q)) / 1e3;
    }
};

/**
 * Run one phase: @p clients threads, each submitting its slice of
 * @p jobs (indices into @p mix) serially over its own connection.
 * Per-job latency is client-observed call() round-trip time.
 */
PhaseResult
runPhase(const std::string &socket, std::size_t clients,
         const std::vector<MixEntry> &mix,
         const std::vector<std::vector<std::size_t>> &jobs)
{
    std::vector<std::vector<std::uint64_t>> latencies(clients);
    std::atomic<std::uint64_t> failures{0};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            net::DaemonClient client(socket);
            latencies[c].reserve(jobs[c].size());
            for (const std::size_t idx : jobs[c]) {
                const Clock::time_point start = Clock::now();
                try {
                    const std::string doc = client.call(mix[idx].json);
                    if (doc.empty())
                        failures.fetch_add(1);
                } catch (const std::exception &) {
                    failures.fetch_add(1);
                }
                latencies[c].push_back(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count()));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    PhaseResult r;
    r.wallSeconds = std::chrono::duration<double>(Clock::now() - t0)
                        .count();
    for (std::size_t c = 0; c < clients; ++c) {
        r.jobs += jobs[c].size();
        for (const std::size_t idx : jobs[c])
            r.configRuns += mix[idx].configRuns;
        for (const std::uint64_t ns : latencies[c])
            r.latencyNs.record(ns);
    }
    if (const std::uint64_t f = failures.load()) {
        std::cerr << "bench_daemon: " << f << " of " << r.jobs
                  << " jobs failed\n";
        std::exit(1);
    }
    return r;
}

} // namespace

int
main()
{
    using namespace c8t;

    std::uint64_t accesses = 20'000;
    if (std::getenv("C8T_BENCH_ACCESSES"))
        accesses = bench::measureAccesses();
    else
        std::cerr << "bench: measuring " << accesses
                  << " accesses per job (set C8T_BENCH_ACCESSES to "
                     "override)\n";

    const std::size_t clients = envCount("C8T_BENCH_CLIENTS", 8);
    const std::size_t targetJobs =
        envCount("C8T_BENCH_DAEMON_JOBS", 2000);

    const std::vector<MixEntry> mix = buildMix(accesses);
    const std::size_t rounds = std::max<std::size_t>(
        1, (targetJobs + clients * mix.size() - 1) /
               (clients * mix.size()));

    net::DaemonConfig cfg;
    cfg.socketPath = "/tmp/c8t_bench_daemon_" +
                     std::to_string(::getpid()) + ".sock";
    net::Daemon daemon(cfg);
    std::thread server([&daemon] { daemon.serve(); });
    while (!daemon.ready())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::cerr << "bench_daemon: " << clients << " clients, "
              << mix.size() << " unique specs, " << rounds
              << " warm rounds (" << clients * mix.size() * rounds
              << " soak jobs)\n";

    // Cold: each unique spec exactly once, striped across the fleet.
    std::vector<std::vector<std::size_t>> coldJobs(clients);
    for (std::size_t i = 0; i < mix.size(); ++i)
        coldJobs[i % clients].push_back(i);
    const PhaseResult cold =
        runPhase(cfg.socketPath, clients, mix, coldJobs);

    // Warm soak: every client loops the whole mix, each starting at a
    // different offset so concurrent requests mostly differ.
    std::vector<std::vector<std::size_t>> warmJobs(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        warmJobs[c].reserve(rounds * mix.size());
        for (std::size_t r = 0; r < rounds; ++r)
            for (std::size_t i = 0; i < mix.size(); ++i)
                warmJobs[c].push_back((i + c) % mix.size());
    }
    const PhaseResult warm =
        runPhase(cfg.socketPath, clients, mix, warmJobs);

    daemon.stop();
    server.join();
    std::remove(cfg.socketPath.c_str());

    const double speedup = warm.jobsPerSec() / cold.jobsPerSec();
    {
        stats::Table t("daemon soak: " + std::to_string(clients) +
                       " clients over one shared pool (" +
                       std::to_string(mix.size()) + " unique specs)");
        t.setHeader({"phase", "jobs", "wall s", "jobs/s", "cfg-runs/s",
                     "p50 us", "p99 us", "p999 us"});
        t.setPrecision(2);
        for (const auto *p : {&cold, &warm}) {
            t.addRow({p == &cold ? "cold" : "warm",
                      static_cast<std::int64_t>(p->jobs),
                      p->wallSeconds, p->jobsPerSec(),
                      p->configRunsPerSec(), p->quantileUs(0.50),
                      p->quantileUs(0.99), p->quantileUs(0.999)});
        }
        t.print(std::cout);
    }
    std::cout << "\ndaemon: warm serves " << warm.jobsPerSec()
              << " jobs/s (" << warm.configRunsPerSec()
              << " config-runs/s) vs " << cold.jobsPerSec()
              << " cold = " << speedup << "x speedup; warm p99 "
              << warm.quantileUs(0.99) << " us\n";

    if (speedup < 1.3) {
        std::cerr << "bench_daemon: warm speedup " << speedup
                  << "x is below the 1.3x acceptance floor\n";
        return 1;
    }
    return 0;
}

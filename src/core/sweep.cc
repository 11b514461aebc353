/**
 * @file
 * Parallel sweep engine implementation.
 */

#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/stream_cache.hh"
#include "core/worker_pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace c8t::core
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Microseconds from @p t0 to @p t. */
double
usSince(Clock::time_point t0, Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - t0).count();
}

/** Execute one job start to finish (worker-thread body). */
std::vector<SchemeRunResult>
executeJob(const SweepJob &job, const RunConfig &rc)
{
    if (!job.makeGenerator)
        throw std::invalid_argument("SweepJob: no generator factory");
    if (job.configs.empty())
        throw std::invalid_argument("SweepJob: no configs");

    std::unique_ptr<trace::AccessGenerator> gen;
    {
        // Covers cache-hit buffer handoff and lock waits too; the
        // generation proper (inside acquire, or lazily in fillChunk)
        // carries its own nested scope of the same phase.
        const obs::prof::ScopedPhase gen_scope(
            obs::prof::Phase::StreamGenerate);
        if (!job.streamKey.empty()) {
            gen = globalStreamCache().acquire(
                job.streamKey, rc.warmupAccesses + rc.measureAccesses,
                job.makeGenerator);
        } else {
            gen = job.makeGenerator();
        }
    }
    MultiSchemeRunner runner(job.configs);
    if (job.prepare)
        job.prepare(runner);
    std::vector<SchemeRunResult> results = runner.run(*gen, rc);
    if (job.inspect)
        job.inspect(runner);
    return results;
}

/** One job's wall-clock span, for the Chrome trace and profiling. */
struct JobSpan
{
    double startUs = 0.0;
    double endUs = 0.0;
    unsigned worker = 0;
    std::size_t configRuns = 0;
    double vdd = 0.0;
    obs::prof::PhaseTimes phases; ///< self-times, profiler on only
};

/** Copy core StreamCache counters into the obs push-model mirror. */
obs::Metrics::StreamCacheStats
streamCacheSnapshot()
{
    const StreamCache::Stats s = globalStreamCache().stats();
    obs::Metrics::StreamCacheStats out;
    out.hits = s.hits;
    out.misses = s.misses;
    out.bypasses = s.bypasses;
    out.evictions = s.evictions;
    out.entries = s.entries;
    out.bytes = s.bytes;
    return out;
}

/**
 * Shared heartbeat state. Workers call noteJobDone() after every job;
 * the progress gauges (jobs done, jobs/s, ETA, queue depth) and the
 * StreamCache mirror in obs::Metrics are refreshed every time, and a
 * throttled progress line (always including the final one) goes to
 * stderr when enabled.
 */
class Heartbeat
{
  public:
    Heartbeat(bool enabled, const std::string &label, std::size_t jobs,
              std::uint64_t accesses_per_job, unsigned workers,
              Clock::time_point t0)
        : _enabled(enabled), _label(label), _jobs(jobs),
          _accessesPerJob(accesses_per_job), _workers(workers), _t0(t0)
    {
    }

    void noteJobDone()
    {
        const std::size_t done =
            _done.fetch_add(1, std::memory_order_relaxed) + 1;
        const auto now = Clock::now();
        const double elapsed =
            std::chrono::duration<double>(now - _t0).count();
        const double jobs_per_s =
            elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta =
            done ? elapsed * static_cast<double>(_jobs - done) /
                       static_cast<double>(done)
                 : 0.0;

        // Keep the process-wide gauges fresh even with the stderr
        // line off: a --metrics-out / C8T_METRICS consumer watching
        // the exposition file sees live progress either way.
        obs::Metrics::SweepSnapshot snap;
        snap.jobsDone = done;
        snap.jobsTotal = _jobs;
        snap.queueDepth = _jobs - done;
        snap.jobsPerSec = jobs_per_s;
        snap.etaSeconds = eta;
        snap.workers = _workers;
        obs::globalMetrics().noteSweep(snap);
        const obs::Metrics::StreamCacheStats cache =
            streamCacheSnapshot();
        obs::globalMetrics().setStreamCache(cache);

        if (!_enabled)
            return;
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            // Throttle to ~2 lines/s, but always print the last job.
            if (done != _jobs && now - _lastPrint < _minGap)
                return;
            _lastPrint = now;
        }

        const double simulated = static_cast<double>(done) *
                                 static_cast<double>(_accessesPerJob);
        const double rate = elapsed > 0.0 ? simulated / elapsed : 0.0;

        char line[256];
        std::snprintf(line, sizeof(line),
                      "[sweep %s] %zu/%zu jobs  %.2fs elapsed  "
                      "%.2fM acc/s  %.2f jobs/s  ETA %.0fs  "
                      "cache-hit %.0f%%\n",
                      _label.c_str(), done, _jobs, elapsed, rate / 1e6,
                      jobs_per_s, eta, 100.0 * cache.hitRate());
        std::cerr << line;
    }

  private:
    const bool _enabled;
    const std::string &_label;
    const std::size_t _jobs;
    const std::uint64_t _accessesPerJob;
    const unsigned _workers;
    const Clock::time_point _t0;
    std::atomic<std::size_t> _done{0};
    std::mutex _mutex;
    Clock::time_point _lastPrint{};
    static constexpr std::chrono::milliseconds _minGap{500};
};

/**
 * Emit one complete span per job onto the worker's track of the
 * process-global Chrome trace (no-op when tracing is off).
 */
void
emitTraceSpans(const std::string &label,
               const std::vector<JobSpan> &spans, unsigned pool)
{
    obs::ChromeTraceWriter *trace = obs::globalTrace();
    if (!trace)
        return;

    constexpr int pid = 1; // the sweep's process track
    trace->processName(pid, "sweep");
    for (unsigned w = 0; w < pool; ++w) {
        trace->threadName(pid, static_cast<int>(w) + 1,
                          "worker " + std::to_string(w));
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const JobSpan &s = spans[i];
        std::ostringstream args;
        args << "{\"job\":" << i << ",\"config_runs\":" << s.configRuns;
        if (s.vdd > 0.0)
            args << ",\"vdd\":" << s.vdd;
        args << '}';
        trace->completeEvent(label + "/job" + std::to_string(i), "sweep",
                             pid, static_cast<int>(s.worker) + 1,
                             s.startUs, s.endUs - s.startUs, args.str());

        // Phase sub-spans (profiler on only): each job's per-phase
        // self times, laid out back-to-back from the job's start so
        // they nest under its span. The layout is an aggregate — a
        // phase's real occurrences interleave within the job — but
        // the proportions and totals are exact.
        if (s.phases.empty())
            continue;
        double cursor = s.startUs;
        for (std::size_t p = 0; p < obs::prof::kNumPhases; ++p) {
            const double dur_us =
                static_cast<double>(s.phases.ns[p]) / 1000.0;
            if (dur_us <= 0.0)
                continue;
            trace->completeEvent(
                std::string("phase:") +
                    obs::prof::toString(static_cast<obs::prof::Phase>(p)),
                "phase", pid, static_cast<int>(s.worker) + 1, cursor,
                dur_us);
            cursor += dur_us;
        }
    }
}

} // anonymous namespace

unsigned
ParallelSweeper::defaultWorkers()
{
    if (const char *env = std::getenv("C8T_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1 && v <= 4096)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

bool
ParallelSweeper::defaultProgress()
{
    const char *env = std::getenv("C8T_PROGRESS");
    return env && *env && std::string(env) != "0";
}

void
appendBenchRecord(const char *who, const obs::prof::PhaseTimes *phases,
                  const std::function<void(std::ostream &)> &body)
{
    const char *path = std::getenv("C8T_BENCH_JSON");
    if (!path || !*path)
        return;
    std::ofstream os(path, std::ios::app);
    if (!os) {
        // Mirror the bench C8T_BENCH_ACCESSES notice style: warn once
        // instead of dropping every perf record silently.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            std::cerr << who << ": cannot open C8T_BENCH_JSON=\"" << path
                      << "\" for append; perf records disabled\n";
        }
        return;
    }
    body(os);
    if (phases) {
        os << ",\"phases\":{";
        for (std::size_t i = 0; i < obs::prof::kNumPhases; ++i) {
            os << "\""
               << obs::prof::toString(static_cast<obs::prof::Phase>(i))
               << "\":";
            stats::jsonNumber(os, static_cast<double>(phases->ns[i]) *
                                      1e-9);
            os << ",";
        }
        os << "\"total\":";
        stats::jsonNumber(os,
                          static_cast<double>(phases->totalNs()) * 1e-9);
        os << "}";
    }
    os << "}\n";
}

ParallelSweeper::ParallelSweeper(unsigned workers)
    : _workers(workers ? workers : defaultWorkers())
{
}

std::vector<std::vector<SchemeRunResult>>
ParallelSweeper::run(const std::vector<SweepJob> &jobs, const RunConfig &rc,
                     const std::string &label) const
{
    const auto t0 = Clock::now();
    const bool prof_on = obs::prof::enabled();
    if (prof_on) {
        // Flush whatever phase time this thread accumulated before
        // the sweep into the process rollup, so the inline path's
        // first per-job delta below starts from zero.
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    }
    std::vector<std::vector<SchemeRunResult>> results(jobs.size());
    std::vector<JobSpan> spans(jobs.size());

    std::uint64_t accesses_per_job = 0;
    for (const SweepJob &job : jobs) {
        accesses_per_job = std::max<std::uint64_t>(
            accesses_per_job,
            job.configs.size() * (rc.warmupAccesses + rc.measureAccesses));
    }
    const unsigned pool =
        static_cast<unsigned>(std::min<std::size_t>(_workers, jobs.size()));

    // When a process-wide SweepPool is installed (the c8td daemon),
    // route the jobs through it instead of spawning a private thread
    // team: all concurrent sweeps then share one team with per-client
    // fairness. Submissions from a pool worker (nested sweeps) fall
    // back to the inline/private paths below via runBatch's inline
    // guard — but we keep them off the shared path entirely so their
    // span worker indices stay consistent.
    SweepPool *shared = globalSweepPool();
    const bool use_shared = shared && !SweepPool::onWorkerThread();
    const unsigned tracks =
        use_shared ? shared->workers() : (pool ? pool : 1);

    Heartbeat heartbeat(_progress, label, jobs.size(), accesses_per_job,
                        tracks, t0);

    const auto run_one = [&](std::size_t i, unsigned worker) {
        spans[i].worker = worker;
        spans[i].vdd = jobs[i].vdd;
        spans[i].startUs = usSince(t0, Clock::now());
        results[i] = executeJob(jobs[i], rc);
        spans[i].endUs = usSince(t0, Clock::now());
        spans[i].configRuns = results[i].size();
        if (prof_on) {
            // Nothing else ran on this thread since the previous
            // take, so the thread-local delta is exactly this job's.
            spans[i].phases = obs::prof::takeThreadTimes();
            obs::globalMetrics().recordJobWallNs(
                static_cast<std::uint64_t>(
                    (spans[i].endUs - spans[i].startUs) * 1000.0));
        }
        heartbeat.noteJobDone();
    };

    if (use_shared) {
        std::vector<SweepPool::Task> tasks;
        tasks.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            tasks.push_back([&run_one, i](unsigned w) { run_one(i, w); });
        // Rethrows the first job error; throws JobCancelled when this
        // thread's client slot was cancelled (client disconnect).
        shared->runBatch(SweepPool::currentClient(), std::move(tasks));
    } else if (pool <= 1) {
        // Inline serial path: reference order, no thread overhead.
        for (std::size_t i = 0; i < jobs.size(); ++i)
            run_one(i, 0);
    } else {
        std::atomic<std::size_t> cursor{0};
        std::mutex error_mutex;
        std::exception_ptr first_error;

        const auto worker = [&](unsigned w) {
            for (;;) {
                const std::size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                try {
                    run_one(i, w);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (unsigned t = 0; t < pool; ++t)
            threads.emplace_back(worker, t);
        for (std::thread &t : threads)
            t.join();

        if (first_error)
            std::rethrow_exception(first_error);
    }

    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    {
        // Trace-span emission and the metrics rewrite are in-run
        // serialization work; scope them so the perf record below
        // attributes them instead of reporting serialize:0. Both
        // no-op (and cost nothing) when their sink is unset.
        const obs::prof::ScopedPhase serialize_scope(
            obs::prof::Phase::Serialize);
        emitTraceSpans(label, spans, tracks);
        obs::writeGlobalMetrics();
    }

    obs::prof::PhaseTimes run_phases;
    if (prof_on) {
        // The main thread contributed the serialize scope above (per
        // job, run_one already flushed the workers' thread-locals).
        run_phases.add(obs::prof::takeThreadTimes());
        std::vector<double> busy(tracks, 0.0);
        std::vector<std::uint64_t> worker_jobs(tracks, 0);
        for (const JobSpan &s : spans) {
            run_phases.add(s.phases);
            busy[s.worker] += (s.endUs - s.startUs) * 1e-6;
            ++worker_jobs[s.worker];
        }
        obs::globalMetrics().addPhaseTimes(run_phases);
        for (unsigned w = 0; w < tracks; ++w) {
            obs::globalMetrics().noteWorker(
                w, busy[w], std::max(0.0, wall - busy[w]),
                worker_jobs[w]);
        }
    }

    if (_recordBench) {
        appendBenchRecord("sweep", prof_on ? &run_phases : nullptr,
                          [&](std::ostream &os) {
            std::uint64_t config_runs = 0;
            for (const auto &job : results)
                config_runs += job.size();
            const double simulated =
                static_cast<double>(config_runs) *
                static_cast<double>(rc.warmupAccesses +
                                    rc.measureAccesses);
            os << "{\"kind\":\"sweep\",\"label\":\""
               << stats::jsonEscape(label) << "\""
               << ",\"jobs\":" << results.size()
               << ",\"workers\":" << tracks
               << ",\"config_runs\":" << config_runs
               << ",\"warmup_accesses\":" << rc.warmupAccesses
               << ",\"measure_accesses\":" << rc.measureAccesses
               << ",\"simulated_accesses\":"
               << static_cast<std::uint64_t>(simulated)
               << ",\"wall_seconds\":" << wall
               << ",\"accesses_per_sec\":"
               << (wall > 0.0 ? simulated / wall : 0.0);
        });
    }
    // Keep the exposition file fresh after every run (no-op when no
    // metrics path is configured); this rewrite includes the phase
    // fold above, the scoped one inside the record does not.
    obs::writeGlobalMetrics();
    return results;
}

std::vector<SweepJob>
specSweepJobs(const mem::CacheConfig &cache,
              const std::vector<WriteScheme> &schemes)
{
    std::vector<SweepJob> jobs;
    const auto &profiles = trace::specProfiles();
    jobs.reserve(profiles.size());
    for (const trace::StreamParams &p : profiles) {
        SweepJob job;
        job.makeGenerator = [p]() -> std::unique_ptr<trace::AccessGenerator> {
            return std::make_unique<trace::MarkovStream>(p);
        };
        // The signature ignores the cache/scheme configuration, so the
        // same profile swept over several geometries (fig11) replays
        // one shared buffer instead of regenerating per sweep.
        job.streamKey = trace::streamSignature(p);
        job.configs.reserve(schemes.size());
        for (WriteScheme s : schemes) {
            ControllerConfig c;
            c.cache = cache;
            c.scheme = s;
            job.configs.push_back(c);
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace c8t::core

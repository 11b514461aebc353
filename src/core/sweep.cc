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
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/decimal.hh"
#include "core/stream_cache.hh"
#include "core/worker_pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
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
        const auto v = parseDecimal(env);
        if (v && *v >= 1 && *v <= kMaxWorkers)
            return static_cast<unsigned>(*v);
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

ParallelSweeper::ParallelSweeper(unsigned workers)
    : _workers(workers ? workers : defaultWorkers())
{
}

std::vector<std::vector<SchemeRunResult>>
ParallelSweeper::run(const std::vector<SweepJob> &jobs, const RunConfig &rc,
                     const std::string &label) const
{
    // SweepPool(0) means "auto-size", so an empty list must not reach
    // the scoped pool below.
    if (jobs.empty())
        return {};

    const auto t0 = Clock::now();
    const bool prof_on = obs::prof::enabled();
    if (prof_on) {
        // Flush whatever phase time this thread accumulated before
        // the sweep into the process rollup, so a nested sweep's first
        // per-job delta on the calling worker starts from zero.
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

    // One executor: the calling worker's pool when nested (runBatch
    // runs the batch inline on that worker), else the installed global
    // pool (c8td), else a pool scoped to this call (default slot only).
    std::optional<SweepPool> scoped;
    SweepPool *pool = SweepPool::current();
    if (!pool)
        pool = globalSweepPool();
    if (!pool) {
        pool = &scoped.emplace(static_cast<unsigned>(
            std::min<std::size_t>(_workers, jobs.size())));
    }
    const unsigned tracks = pool->workers();

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

    std::vector<SweepPool::Task> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        tasks.push_back([&run_one, i](unsigned w) { run_one(i, w); });
    // Rethrows the first job error; throws JobCancelled when this
    // thread's client slot was cancelled (c8td: client disconnect).
    pool->runBatch(scoped ? 0 : SweepPool::currentClient(),
                   std::move(tasks));

    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    {
        // Trace-span emission and the metrics rewrite are in-run
        // serialization work; scope them so the phase rollup below
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

    // Keep the exposition file fresh after every run (no-op when no
    // metrics path is configured); this rewrite includes the phase
    // fold above, the scoped one before it does not.
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

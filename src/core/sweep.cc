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
 * process-global Chrome trace (no-op when tracing is off). Spans are
 * measured from the sweep's start @p t0 and stamped on the trace's
 * epoch, so every sweep of a process shares one clock.
 */
void
emitTraceSpans(const std::string &label,
               const std::vector<JobSpan> &spans, unsigned pool,
               Clock::time_point t0)
{
    obs::ChromeTraceWriter *trace = obs::globalTrace();
    if (!trace)
        return;
    const double t0Us = trace->usAt(t0);

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
                             t0Us + s.startUs, s.endUs - s.startUs,
                             args.str());

        // Phase sub-spans (profiler on only): each job's per-phase
        // self times, laid out back-to-back from the job's start so
        // they nest under its span. The layout is an aggregate — a
        // phase's real occurrences interleave within the job — but
        // the proportions and totals are exact.
        if (s.phases.empty())
            continue;
        double cursor = t0Us + s.startUs;
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

/** Everything a started sweep's jobs write to, at a stable address. */
struct PendingSweep::State
{
    State(const std::vector<SweepJob> &jobs_in, const RunConfig &rc_in,
          const std::string &label_in)
        : jobs(jobs_in), rc(rc_in), label(label_in),
          results(jobs_in.size()), spans(jobs_in.size())
    {
    }

    const std::vector<SweepJob> &jobs;
    const RunConfig rc;
    const std::string label;
    const Clock::time_point t0 = Clock::now();
    const bool profOn = obs::prof::enabled();
    std::vector<std::vector<SchemeRunResult>> results;
    std::vector<JobSpan> spans;
    std::shared_ptr<SweepPool> ownPool; ///< keeps the sweeper's pool alive
    SweepPool *pool = nullptr;
    std::optional<Heartbeat> heartbeat;
    SweepPool::Ticket ticket;

    /** Worker-thread body of job @p i. */
    void runOne(std::size_t i, unsigned worker)
    {
        JobSpan &span = spans[i];
        span.worker = worker;
        span.vdd = jobs[i].vdd;
        span.startUs = usSince(t0, Clock::now());
        results[i] = executeJob(jobs[i], rc);
        span.endUs = usSince(t0, Clock::now());
        span.configRuns = results[i].size();
        if (profOn) {
            // Nothing else ran on this thread since the previous
            // take, so the thread-local delta is exactly this job's.
            span.phases = obs::prof::takeThreadTimes();
            obs::globalMetrics().recordJobWallNs(
                static_cast<std::uint64_t>(
                    (span.endUs - span.startUs) * 1000.0));
        }
        heartbeat->noteJobDone();
    }
};

PendingSweep::PendingSweep(std::unique_ptr<State> state)
    : _state(std::move(state))
{
}

PendingSweep::PendingSweep(PendingSweep &&) noexcept = default;

PendingSweep::~PendingSweep()
{
    if (!_state)
        return;
    // Abandon: drop the unclaimed jobs and wait for the running ones,
    // which write into *_state.
    try {
        _state->pool->wait(std::move(_state->ticket), true);
    } catch (...) {
    }
}

std::vector<std::vector<SchemeRunResult>>
PendingSweep::finish()
{
    if (!_state)
        return {};
    State &s = *_state;
    // Rethrows the first job error; throws JobCancelled when the
    // submitting client slot was cancelled (c8td: client disconnect).
    s.pool->wait(std::move(s.ticket));
    const unsigned tracks = s.pool->workers();

    {
        // Trace-span emission and the metrics rewrite are in-run
        // serialization work; scope them so the phase rollup below
        // attributes them instead of reporting serialize:0. Both
        // no-op (and cost nothing) when their sink is unset.
        const obs::prof::ScopedPhase serialize_scope(
            obs::prof::Phase::Serialize);
        emitTraceSpans(s.label, s.spans, tracks, s.t0);
        obs::writeGlobalMetrics();
    }

    if (s.profOn) {
        // The calling thread contributed the serialize scope above
        // and whatever it ran since start() (per job, runOne already
        // flushed the workers' thread-locals). The pool reported the
        // workers' busy and idle time when it drained.
        obs::prof::PhaseTimes run_phases = obs::prof::takeThreadTimes();
        for (const JobSpan &span : s.spans)
            run_phases.add(span.phases);
        obs::globalMetrics().addPhaseTimes(run_phases);
    }

    // Keep the exposition file fresh after every run (no-op when no
    // metrics path is configured); this rewrite includes the phase
    // fold above, the scoped one before it does not.
    obs::writeGlobalMetrics();
    std::vector<std::vector<SchemeRunResult>> results =
        std::move(s.results);
    _state.reset();
    return results;
}

PendingSweep
ParallelSweeper::start(const std::vector<SweepJob> &jobs,
                       const RunConfig &rc, const std::string &label) const
{
    // SweepPool(0) means "auto-size", so an empty list must not reach
    // the own pool below.
    if (jobs.empty())
        return PendingSweep(nullptr);

    auto state = std::make_unique<PendingSweep::State>(jobs, rc, label);
    PendingSweep::State &s = *state;
    if (s.profOn) {
        // Flush whatever phase time this thread accumulated before
        // the sweep into the process rollup, so a nested sweep's first
        // per-job delta on the calling worker starts from zero.
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    }

    std::uint64_t accesses_per_job = 0;
    for (const SweepJob &job : jobs) {
        accesses_per_job = std::max<std::uint64_t>(
            accesses_per_job,
            job.configs.size() * (rc.warmupAccesses + rc.measureAccesses));
    }

    // One executor: the calling worker's pool when nested (submit runs
    // the batch inline on that worker), else the installed global pool
    // (c8td), else this sweeper's own pool (default slot only).
    s.pool = SweepPool::current();
    if (!s.pool)
        s.pool = globalSweepPool();
    if (!s.pool) {
        const std::lock_guard<std::mutex> lock(_poolMutex);
        if (!_pool) {
            _pool = std::make_shared<SweepPool>(static_cast<unsigned>(
                std::min<std::size_t>(_workers, jobs.size())));
        }
        s.ownPool = _pool;
        s.pool = _pool.get();
    }

    s.heartbeat.emplace(_progress, s.label, jobs.size(), accesses_per_job,
                        s.pool->workers(), s.t0);

    std::vector<SweepPool::Task> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        tasks.push_back([&s, i](unsigned w) { s.runOne(i, w); });
    s.ticket = s.pool->submit(s.ownPool ? 0 : SweepPool::currentClient(),
                              std::move(tasks));
    return PendingSweep(std::move(state));
}

std::vector<std::vector<SchemeRunResult>>
ParallelSweeper::run(const std::vector<SweepJob> &jobs, const RunConfig &rc,
                     const std::string &label) const
{
    return start(jobs, rc, label).finish();
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

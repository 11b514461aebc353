/**
 * @file
 * Metrics registry implementation and the Prometheus / profile-JSON
 * exporters.
 */

#include "obs/metrics.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "stats/json.hh"

namespace c8t::obs
{

namespace
{

/** ns -> seconds for export (histograms record nanoseconds). */
double
sec(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** ns -> microseconds for the profile-JSON histogram block. */
double
us(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-3;
}

void
num(std::ostream &os, double v)
{
    stats::jsonNumber(os, v);
}

/** One "name{quantile=...}" summary family plus a _max gauge. */
void
writeSummary(std::ostream &os, const char *name, const char *help,
             const Histogram &h)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " summary\n";
    for (const double q : {0.5, 0.95, 0.99}) {
        os << name << "{quantile=\"" << q << "\"} ";
        num(os, sec(h.quantile(q)));
        os << "\n";
    }
    os << name << "_sum ";
    num(os, sec(h.sum()));
    os << "\n";
    os << name << "_count " << h.count() << "\n";
    os << "# HELP " << name << "_max Largest recorded value.\n";
    os << "# TYPE " << name << "_max gauge\n";
    os << name << "_max ";
    num(os, sec(h.max()));
    os << "\n";
}

void
writeGauge(std::ostream &os, const char *name, const char *help,
           double v)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " gauge\n";
    os << name << " ";
    num(os, v);
    os << "\n";
}

void
writeCounter(std::ostream &os, const char *name, const char *help,
             std::uint64_t v)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " counter\n";
    os << name << " " << v << "\n";
}

void
writeHistogramJson(std::ostream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count() << ",\"mean\":";
    num(os, us(static_cast<std::uint64_t>(h.mean())));
    os << ",\"p50\":";
    num(os, us(h.quantile(0.5)));
    os << ",\"p95\":";
    num(os, us(h.quantile(0.95)));
    os << ",\"p99\":";
    num(os, us(h.quantile(0.99)));
    os << ",\"max\":";
    num(os, us(h.max()));
    os << "}";
}

} // anonymous namespace

void
Metrics::addPhaseTimes(const prof::PhaseTimes &t)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _phases.add(t);
}

void
Metrics::recordJobWallNs(std::uint64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _jobWall.record(ns);
}

void
Metrics::recordChunkReplayNs(std::uint64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _chunkReplay.record(ns);
}

void
Metrics::recordShardWallNs(std::uint64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _shardWall.record(ns);
}

void
Metrics::noteSweep(const SweepSnapshot &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _sweep = s;
}

void
Metrics::noteExplorer(const ExplorerSnapshot &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _explorer = s;
}

void
Metrics::noteWorker(std::uint32_t worker, double busy_seconds,
                    double idle_seconds, std::uint64_t jobs)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    if (_workers.size() <= worker)
        _workers.resize(worker + 1);
    _workers[worker].busySeconds += busy_seconds;
    _workers[worker].idleSeconds += idle_seconds;
    _workers[worker].jobs += jobs;
}

void
Metrics::setStreamCache(const StreamCacheStats &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _streamCache = s;
}

void
Metrics::setFaultCache(const FaultCacheStats &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _faultCache = s;
}

void
Metrics::setPool(const PoolStats &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _pool = s;
}

void
Metrics::noteDaemon(const DaemonSnapshot &s)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _daemon = s;
    _daemonSeen = true;
}

void
Metrics::recordDaemonJobNs(std::uint64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _daemonJob.record(ns);
}

prof::PhaseTimes
Metrics::phaseTimes() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _phases;
}

Histogram
Metrics::jobWall() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _jobWall;
}

Histogram
Metrics::chunkReplay() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _chunkReplay;
}

Histogram
Metrics::shardWall() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _shardWall;
}

Metrics::SweepSnapshot
Metrics::sweep() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _sweep;
}

Metrics::ExplorerSnapshot
Metrics::explorer() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _explorer;
}

std::vector<Metrics::WorkerStats>
Metrics::workers() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _workers;
}

Metrics::StreamCacheStats
Metrics::streamCache() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _streamCache;
}

Metrics::FaultCacheStats
Metrics::faultCache() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _faultCache;
}

Metrics::PoolStats
Metrics::pool() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _pool;
}

Metrics::DaemonSnapshot
Metrics::daemon() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _daemon;
}

Histogram
Metrics::daemonJob() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _daemonJob;
}

void
Metrics::writePrometheus(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(_mutex);

    writeGauge(os, "c8t_profiling_enabled",
               "Phase profiler recording state (1 = on).",
               prof::enabled() ? 1.0 : 0.0);

    os << "# HELP c8t_phase_seconds_total Cumulative self time per "
          "pipeline phase.\n";
    os << "# TYPE c8t_phase_seconds_total counter\n";
    for (std::size_t i = 0; i < prof::kNumPhases; ++i) {
        os << "c8t_phase_seconds_total{phase=\""
           << prof::toString(static_cast<prof::Phase>(i)) << "\"} ";
        num(os, sec(_phases.ns[i]));
        os << "\n";
    }
    os << "# HELP c8t_phase_scopes_total Scope entries per pipeline "
          "phase.\n";
    os << "# TYPE c8t_phase_scopes_total counter\n";
    for (std::size_t i = 0; i < prof::kNumPhases; ++i) {
        os << "c8t_phase_scopes_total{phase=\""
           << prof::toString(static_cast<prof::Phase>(i)) << "\"} "
           << _phases.scopes[i] << "\n";
    }

    writeSummary(os, "c8t_job_wall_seconds",
                 "Sweep-job wall-time distribution.", _jobWall);
    writeSummary(os, "c8t_chunk_replay_seconds",
                 "Per-chunk replay-time distribution.", _chunkReplay);
    writeSummary(os, "c8t_shard_wall_seconds",
                 "Explorer per-shard wall-time distribution.",
                 _shardWall);

    writeCounter(os, "c8t_stream_cache_hits_total",
                 "StreamCache lookup hits.", _streamCache.hits);
    writeCounter(os, "c8t_stream_cache_misses_total",
                 "StreamCache lookup misses (stream generated).",
                 _streamCache.misses);
    writeCounter(os, "c8t_stream_cache_bypasses_total",
                 "StreamCache lookups bypassed (over-budget streams).",
                 _streamCache.bypasses);
    writeCounter(os, "c8t_stream_cache_evictions_total",
                 "StreamCache LRU evictions.", _streamCache.evictions);
    writeGauge(os, "c8t_stream_cache_hit_ratio",
               "Hits over lookups (0 when unused).",
               _streamCache.hitRate());
    writeGauge(os, "c8t_stream_cache_entries",
               "Resident cached streams.",
               static_cast<double>(_streamCache.entries));
    writeGauge(os, "c8t_stream_cache_resident_bytes",
               "Bytes held by cached streams.",
               static_cast<double>(_streamCache.bytes));

    writeGauge(os, "c8t_sweep_jobs", "Jobs in the current/last sweep.",
               static_cast<double>(_sweep.jobsTotal));
    writeGauge(os, "c8t_sweep_jobs_done", "Jobs completed so far.",
               static_cast<double>(_sweep.jobsDone));
    writeGauge(os, "c8t_sweep_queue_depth",
               "Jobs not yet completed.",
               static_cast<double>(_sweep.queueDepth));
    writeGauge(os, "c8t_sweep_jobs_per_second",
               "Completed-job throughput of the current/last sweep.",
               _sweep.jobsPerSec);
    writeGauge(os, "c8t_sweep_eta_seconds",
               "Estimated seconds to sweep completion (0 when done).",
               _sweep.etaSeconds);
    writeGauge(os, "c8t_sweep_workers",
               "Worker threads used by the current/last sweep.",
               static_cast<double>(_sweep.workers));

    writeGauge(os, "c8t_explorer_shards",
               "Shards in the current/last explore.",
               static_cast<double>(_explorer.shardsTotal));
    writeGauge(os, "c8t_explorer_shards_done",
               "Explorer shards completed so far.",
               static_cast<double>(_explorer.shardsDone));
    writeGauge(os, "c8t_explorer_config_runs",
               "Config-runs in the current/last explore.",
               static_cast<double>(_explorer.configRunsTotal));
    writeGauge(os, "c8t_explorer_config_runs_done",
               "Explorer config-runs completed so far.",
               static_cast<double>(_explorer.configRunsDone));
    writeGauge(os, "c8t_explorer_config_runs_per_second",
               "Config-run throughput of the current/last explore.",
               _explorer.configRunsPerSec);
    writeGauge(os, "c8t_explorer_eta_seconds",
               "Estimated seconds to explore completion (0 when done).",
               _explorer.etaSeconds);

    if (!_workers.empty()) {
        os << "# HELP c8t_worker_busy_seconds_total Per-worker time "
              "spent executing jobs.\n";
        os << "# TYPE c8t_worker_busy_seconds_total counter\n";
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            os << "c8t_worker_busy_seconds_total{worker=\"" << w
               << "\"} ";
            num(os, _workers[w].busySeconds);
            os << "\n";
        }
        os << "# HELP c8t_worker_idle_seconds_total Per-worker time "
              "spent waiting for work.\n";
        os << "# TYPE c8t_worker_idle_seconds_total counter\n";
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            os << "c8t_worker_idle_seconds_total{worker=\"" << w
               << "\"} ";
            num(os, _workers[w].idleSeconds);
            os << "\n";
        }
        os << "# HELP c8t_worker_jobs_total Jobs executed per "
              "worker.\n";
        os << "# TYPE c8t_worker_jobs_total counter\n";
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            os << "c8t_worker_jobs_total{worker=\"" << w << "\"} "
               << _workers[w].jobs << "\n";
        }
    }

    writeCounter(os, "c8t_fault_cache_hits_total",
                 "Fault-map campaign memo hits.", _faultCache.hits);
    writeCounter(os, "c8t_fault_cache_misses_total",
                 "Fault-map campaign memo misses (campaign run).",
                 _faultCache.misses);
    writeGauge(os, "c8t_fault_cache_entries",
               "Memoized fault-map campaigns.",
               static_cast<double>(_faultCache.entries));

    // Daemon families only once a daemon pushed a snapshot: the
    // one-shot drivers' exposition stays exactly as before.
    if (_daemonSeen) {
        writeCounter(os, "c8t_pool_tasks_total",
                     "Tasks executed by the shared sweep pool.",
                     _pool.tasksRun);
        writeCounter(os, "c8t_pool_tasks_cancelled_total",
                     "Pool tasks dropped by client cancellation.",
                     _pool.tasksCancelled);
        writeCounter(os, "c8t_pool_batches_total",
                     "Batches submitted to the shared sweep pool.",
                     _pool.batches);
        writeGauge(os, "c8t_pool_clients",
                   "Registered pool client slots.",
                   static_cast<double>(_pool.activeClients));
        writeGauge(os, "c8t_pool_queue_depth",
                   "Tasks queued in the shared sweep pool.",
                   static_cast<double>(_pool.queuedTasks));
        writeGauge(os, "c8t_pool_workers",
                   "Worker threads in the shared sweep pool.",
                   static_cast<double>(_pool.workers));

        writeGauge(os, "c8t_daemon_connections_active",
                   "Open daemon client connections.",
                   static_cast<double>(_daemon.connectionsActive));
        writeCounter(os, "c8t_daemon_connections_total",
                     "Daemon client connections accepted.",
                     _daemon.connectionsTotal);
        writeCounter(os, "c8t_daemon_jobs_accepted_total",
                     "Request frames accepted.", _daemon.jobsAccepted);
        writeGauge(os, "c8t_daemon_jobs_running",
                   "Jobs currently executing.",
                   static_cast<double>(_daemon.jobsRunning));
        writeCounter(os, "c8t_daemon_jobs_succeeded_total",
                     "Jobs answered with a final-result frame.",
                     _daemon.jobsSucceeded);
        writeCounter(os, "c8t_daemon_jobs_failed_total",
                     "Jobs answered with an error frame.",
                     _daemon.jobsFailed);
        writeCounter(os, "c8t_daemon_jobs_cancelled_total",
                     "Jobs abandoned by client disconnect.",
                     _daemon.jobsCancelled);
        writeCounter(os, "c8t_daemon_memo_hits_total",
                     "Jobs served verbatim from the result memo.",
                     _daemon.memoHits);
        writeGauge(os, "c8t_daemon_memo_bytes",
                   "Result-memo bytes resident (keys + documents).",
                   static_cast<double>(_daemon.memoBytes));
        writeCounter(os, "c8t_daemon_memo_evictions_total",
                     "Result-memo documents evicted for the byte budget.",
                     _daemon.memoEvictions);
        writeCounter(os, "c8t_daemon_bytes_out_total",
                     "Response bytes written to clients.",
                     _daemon.bytesOut);
        writeCounter(os, "c8t_daemon_frames_dropped_total",
                     "Advisory frames dropped behind queued bytes.",
                     _daemon.framesDropped);
        writeSummary(os, "c8t_daemon_job_seconds",
                     "End-to-end daemon job latency distribution.",
                     _daemonJob);
    }
}

void
Metrics::writeProfileJson(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(_mutex);

    os << "{\"phases\":{";
    for (std::size_t i = 0; i < prof::kNumPhases; ++i) {
        if (i)
            os << ",";
        os << "\"" << prof::toString(static_cast<prof::Phase>(i))
           << "\":{\"seconds\":";
        num(os, sec(_phases.ns[i]));
        os << ",\"scopes\":" << _phases.scopes[i] << "}";
    }
    os << "},\"total_seconds\":";
    num(os, sec(_phases.totalNs()));
    os << ",\"histograms\":{\"job_wall_us\":";
    writeHistogramJson(os, _jobWall);
    os << ",\"chunk_replay_us\":";
    writeHistogramJson(os, _chunkReplay);
    os << ",\"shard_wall_us\":";
    writeHistogramJson(os, _shardWall);
    os << "}}";
}

void
Metrics::reset()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _phases = prof::PhaseTimes{};
    _jobWall.reset();
    _chunkReplay.reset();
    _shardWall.reset();
    _daemonJob.reset();
    _sweep = SweepSnapshot{};
    _explorer = ExplorerSnapshot{};
    _workers.clear();
    _streamCache = StreamCacheStats{};
    _faultCache = FaultCacheStats{};
    _pool = PoolStats{};
    _daemon = DaemonSnapshot{};
    _daemonSeen = false;
}

Metrics &
globalMetrics()
{
    // Leaked on purpose: worker threads and atexit-ordered writers
    // may touch the registry arbitrarily late in process shutdown.
    static Metrics *metrics = new Metrics;
    return *metrics;
}

namespace
{

std::mutex g_path_mutex;
std::string g_explicit_path;      // --metrics-out, wins over the env
bool g_write_failed = false;      // one warning, then stay silent

} // anonymous namespace

void
setGlobalMetricsPath(const std::string &path)
{
    {
        const std::lock_guard<std::mutex> lock(g_path_mutex);
        g_explicit_path = path;
        g_write_failed = false;
    }
    prof::setEnabled(true);
}

std::string
resolvedMetricsPath()
{
    {
        const std::lock_guard<std::mutex> lock(g_path_mutex);
        if (!g_explicit_path.empty())
            return g_explicit_path;
    }
    if (const char *env = std::getenv("C8T_METRICS"); env && *env)
        return env;
    return "";
}

void
writeGlobalMetrics()
{
    const std::string path = resolvedMetricsPath();
    if (path.empty())
        return;
    {
        const std::lock_guard<std::mutex> lock(g_path_mutex);
        if (g_write_failed)
            return;
    }
    // Atomic rewrite: compose into a tmp file and rename over the
    // target. A scraper (or a process dying on a fatal error path
    // mid-exposition) can then never observe a truncated file — the
    // previous complete exposition stays in place until the new one
    // is fully flushed.
    const std::string tmp = path + ".tmp";
    const auto fail = [&] {
        const std::lock_guard<std::mutex> lock(g_path_mutex);
        if (!g_write_failed) {
            std::cerr << "metrics: cannot write \"" << path
                      << "\"; exposition disabled\n";
            g_write_failed = true;
        }
        std::remove(tmp.c_str());
    };
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os) {
            fail();
            return;
        }
        globalMetrics().writePrometheus(os);
        os.flush();
        if (!os) {
            fail();
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail();
}

} // namespace c8t::obs

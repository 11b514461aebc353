/**
 * @file
 * Process-wide metrics registry: phase times, latency histograms and
 * engine gauges, with Prometheus-style text exposition.
 *
 * obs::prof accumulates per-thread; this registry is where those
 * times (and the job-wall / chunk-replay latency histograms, the
 * StreamCache counters and the ParallelSweeper worker telemetry)
 * meet. The sweep engine pushes into it after every job; exporters
 * pull a consistent snapshot out of it:
 *
 *   * writePrometheus() — text exposition (one c8t_* family per
 *     metric, counters/gauges/summaries) written to --metrics-out /
 *     C8T_METRICS, scrapeable or just human-readable,
 *   * writeProfileJson() — the "profile" section embedded in the
 *     schema-v3 `c8tsim --stats-json` document and golden-tested.
 *
 * Layering: core depends on obs, so this header must not include
 * core headers. Producers therefore *push* their state in (e.g. the
 * sweep engine copies core::StreamCache::Stats field-by-field into
 * setStreamCache()) rather than Metrics pulling it.
 *
 * All methods are internally locked; recording paths (histogram
 * record, phase-time add) do not allocate, so they are safe under
 * the counting-allocator hot-path tests.
 */

#ifndef C8T_OBS_METRICS_HH
#define C8T_OBS_METRICS_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/prof.hh"

namespace c8t::obs
{

/** Process-wide profiling/telemetry rollup. */
class Metrics
{
  public:
    /** Mirror of core::StreamCache::Stats (push-model, see above). */
    struct StreamCacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t bypasses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;

        double hitRate() const
        {
            const std::uint64_t lookups = hits + misses;
            return lookups ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
        }
    };

    /** Sweep-engine progress gauges (last run() wins). */
    struct SweepSnapshot
    {
        std::uint64_t jobsDone = 0;
        std::uint64_t jobsTotal = 0;
        std::uint64_t queueDepth = 0; ///< jobsTotal - jobsDone
        double jobsPerSec = 0.0;
        double etaSeconds = 0.0;
        std::uint32_t workers = 0;
    };

    /** Cumulative per-worker telemetry (index = worker id). */
    struct WorkerStats
    {
        double busySeconds = 0.0;
        double idleSeconds = 0.0;
        std::uint64_t jobs = 0;
    };

    /** Design-space explorer progress gauges (last explore wins).
     *  Config-runs are the explorer's unit of throughput: one
     *  (workload, geometry, scheme, Vdd) simulation. */
    struct ExplorerSnapshot
    {
        std::uint64_t shardsDone = 0;
        std::uint64_t shardsTotal = 0;
        std::uint64_t configRunsDone = 0;
        std::uint64_t configRunsTotal = 0;
        double configRunsPerSec = 0.0;
        double etaSeconds = 0.0;
    };

    /** Mirror of core::FaultMapCache::Stats (push-model). */
    struct FaultCacheStats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t entries = 0;
    };

    /** Mirror of core::SweepPool::Stats (push-model). */
    struct PoolStats
    {
        std::uint64_t tasksRun = 0;
        std::uint64_t tasksCancelled = 0;
        std::uint64_t batches = 0;
        std::uint64_t activeClients = 0;
        std::uint64_t queuedTasks = 0;
        std::uint32_t workers = 0;
    };

    /** c8td sweep-service gauges/counters (pushed by the daemon). */
    struct DaemonSnapshot
    {
        std::uint64_t connectionsActive = 0;
        std::uint64_t connectionsTotal = 0;
        std::uint64_t jobsAccepted = 0;
        std::uint64_t jobsRunning = 0;
        std::uint64_t jobsSucceeded = 0;
        std::uint64_t jobsFailed = 0;
        std::uint64_t jobsCancelled = 0;
        std::uint64_t memoHits = 0;   ///< whole-result duplicate hits
        std::uint64_t bytesOut = 0;   ///< response bytes written
        std::uint64_t framesDropped = 0; ///< advisory, behind queued bytes
        std::uint64_t memoBytes = 0;     ///< resident result-memo bytes
        std::uint64_t memoEvictions = 0; ///< budget-evicted documents
    };

    // --- producers -----------------------------------------------
    void addPhaseTimes(const prof::PhaseTimes &t);
    void recordJobWallNs(std::uint64_t ns);
    void recordChunkReplayNs(std::uint64_t ns);
    void recordShardWallNs(std::uint64_t ns);
    void noteSweep(const SweepSnapshot &s);
    void noteExplorer(const ExplorerSnapshot &s);
    /** Adds (cumulatively) onto worker @p worker's totals. */
    void noteWorker(std::uint32_t worker, double busy_seconds,
                    double idle_seconds, std::uint64_t jobs);
    void setStreamCache(const StreamCacheStats &s);
    void setFaultCache(const FaultCacheStats &s);
    void setPool(const PoolStats &s);
    void noteDaemon(const DaemonSnapshot &s);
    /** End-to-end daemon job latency (request decode to final frame). */
    void recordDaemonJobNs(std::uint64_t ns);

    // --- consumers -----------------------------------------------
    prof::PhaseTimes phaseTimes() const;
    Histogram jobWall() const;
    Histogram chunkReplay() const;
    Histogram shardWall() const;
    Histogram daemonJob() const;
    SweepSnapshot sweep() const;
    ExplorerSnapshot explorer() const;
    std::vector<WorkerStats> workers() const;
    StreamCacheStats streamCache() const;
    FaultCacheStats faultCache() const;
    PoolStats pool() const;
    DaemonSnapshot daemon() const;

    /** Prometheus text exposition (# HELP/# TYPE + samples). */
    void writePrometheus(std::ostream &os) const;

    /**
     * The "profile" JSON object for the schema-v3 stats document:
     * {"phases":{...},"histograms":{...}} — phase self-times in
     * seconds with scope counts, histogram quantiles in microseconds.
     */
    void writeProfileJson(std::ostream &os) const;

    /** Drop everything (tests; the registry is otherwise for-life). */
    void reset();

  private:
    mutable std::mutex _mutex;
    prof::PhaseTimes _phases;
    Histogram _jobWall;
    Histogram _chunkReplay;
    Histogram _shardWall;
    Histogram _daemonJob;
    SweepSnapshot _sweep;
    ExplorerSnapshot _explorer;
    std::vector<WorkerStats> _workers;
    StreamCacheStats _streamCache;
    FaultCacheStats _faultCache;
    PoolStats _pool;
    DaemonSnapshot _daemon;
    bool _daemonSeen = false; ///< gate the daemon families in the text
};

/** The process-wide registry (never destroyed). */
Metrics &globalMetrics();

/**
 * Install an explicit exposition output path (`--metrics-out`);
 * takes precedence over C8T_METRICS and implies prof::setEnabled().
 */
void setGlobalMetricsPath(const std::string &path);

/**
 * The effective exposition path: the explicit one if installed, else
 * C8T_METRICS, else empty (exposition off).
 */
std::string resolvedMetricsPath();

/**
 * Write the exposition file if a path is configured. The write is
 * atomic (tmp file + rename), so a reader — or a process dying
 * mid-write on a fatal error path — can never observe a truncated
 * exposition. The sweep engine calls this after every run and the
 * drivers at exit (including their fatal-error paths), so long
 * multi-sweep processes keep the file fresh; a write failure warns
 * once and disables further attempts.
 */
void writeGlobalMetrics();

} // namespace c8t::obs

#endif // C8T_OBS_METRICS_HH

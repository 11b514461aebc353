/**
 * @file
 * The parallel sweep engine.
 *
 * Every figure/table binary replays many independent (workload,
 * cache-config, scheme-set) runs; historically they ran serially
 * through one loop. ParallelSweeper fans those runs across a
 * core::SweepPool. Each job is fully self-contained — it constructs its
 * own AccessGenerator (seeded deterministically from the workload
 * parameters), its own FunctionalMemory instances and its own
 * MultiSchemeRunner — so no simulation state is shared between threads
 * and the results are byte-identical to the serial order for any
 * worker count.
 *
 * Worker count resolution: an explicit constructor argument wins, then
 * the C8T_JOBS environment variable, then hardware_concurrency().
 *
 * A sweep is started and finished separately (start() returns a
 * PendingSweep), so a caller can queue its next sweep before it
 * finishes the current one: the explorer keeps two shards in flight
 * and reduces one while the other runs. run() is start().finish().
 *
 * Observability (DESIGN.md §6): with C8T_PROGRESS set (or
 * setProgress(true), c8tsim --progress) a sweep heartbeats a throttled
 * progress line to stderr — jobs done/total, aggregate simulated
 * accesses/s, ETA. With C8T_CHROME_TRACE naming a file (or c8tsim
 * --chrome-trace) every job contributes one span to a Perfetto-
 * loadable Chrome trace, on its worker's track, stamped from the
 * trace's one epoch.
 */

#ifndef C8T_CORE_SWEEP_HH
#define C8T_CORE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "mem/cache.hh"
#include "obs/prof.hh"
#include "trace/access.hh"

namespace c8t::core
{

/**
 * One independent unit of sweep work: a workload factory plus the
 * controller configurations to run it through.
 *
 * The factory (not a live generator) is what makes the job safely
 * parallel AND deterministic: each execution builds a fresh generator,
 * so repeated runs and different thread counts see the identical
 * stream.
 */
struct SweepJob
{
    /** Build the job's workload. Called once, on the worker thread. */
    std::function<std::unique_ptr<trace::AccessGenerator>()> makeGenerator;

    /**
     * Deterministic workload signature for cross-job stream
     * memoization (core::StreamCache). Empty (the default) opts the
     * job out: every execution builds a fresh generator. When set, it
     * MUST uniquely identify the byte stream makeGenerator produces —
     * equal keys promise byte-identical streams (use
     * trace::streamSignature for SPEC profiles). The first job with a
     * given key generates the stream once; later jobs replay the
     * shared packed stream, which cannot change any result.
     */
    std::string streamKey;

    /** Controller configurations (one result per config). */
    std::vector<ControllerConfig> configs;

    /**
     * Supply voltage this job evaluates, 0 when the job has no voltage
     * dimension (every pre-vmodel sweep); for a VddSweep job that
     * covers a timing class of several supplies, the class's first.
     * Annotation only — the operating points that actually drive the
     * simulation are configs[i].vdd — carried here so progress tooling
     * and the Chrome trace can label jobs of a VddSweep without
     * digging through configs.
     */
    double vdd = 0.0;

    /**
     * Optional pre-run hook, invoked on the worker thread after the
     * runner is constructed but before any access is replayed. This
     * is the attachment point for observability: event rings
     * (CacheController::attachEventRing) and interval snapshotters
     * (MultiSchemeRunner::setIntervalHook). Same synchronisation
     * rules as inspect.
     */
    std::function<void(MultiSchemeRunner &)> prepare;

    /**
     * Optional post-run hook, invoked on the worker thread after the
     * runner has completed (and drained). Use it to inspect controller
     * or memory state that the SchemeRunResult snapshot does not carry
     * (e.g. the memory-equivalence property tests), or to run per-job
     * follow-up work on the worker (runVddSweep evaluates the job's
     * fault-map campaigns here). It must only touch job-local
     * state or appropriately synchronised captures.
     */
    std::function<void(MultiSchemeRunner &)> inspect;
};

class SweepPool;

/**
 * A started sweep: its jobs are queued on the executor and run while
 * the caller does other work. finish() waits for them and returns the
 * results. Destroying a sweep that was not finished (an exception on
 * the caller's path, say) abandons it: its unclaimed jobs are dropped,
 * the running ones are waited for and their results and errors are
 * discarded, so no exit path leaves a job running against freed state.
 * The job list passed to start() must outlive the sweep.
 */
class PendingSweep
{
  public:
    PendingSweep(PendingSweep &&) noexcept;
    ~PendingSweep();

    /**
     * Wait for every job and return the per-job result vectors in
     * submission order. Rethrows the first job exception with its
     * type; throws JobCancelled when the submitting client's slot was
     * cancelled (c8td: client disconnect). Call at most once.
     */
    std::vector<std::vector<SchemeRunResult>> finish();

  private:
    friend class ParallelSweeper;
    struct State;
    explicit PendingSweep(std::unique_ptr<State> state);

    std::unique_ptr<State> _state;
};

/**
 * Thread-pool executor for independent sweep jobs.
 */
class ParallelSweeper
{
  public:
    /** Largest worker count accepted from C8T_JOBS or a --jobs flag. */
    static constexpr unsigned kMaxWorkers = 4096;

    /**
     * @param workers Worker threads; 0 = resolve from C8T_JOBS or
     *                hardware_concurrency().
     */
    explicit ParallelSweeper(unsigned workers = 0);

    /** Worker threads this sweeper will use. */
    unsigned workers() const { return _workers; }

    /** Resolved default worker count (C8T_JOBS if set and within
     *  1..kMaxWorkers, else hardware_concurrency(), at least 1). */
    static unsigned defaultWorkers();

    /**
     * Enable/disable the stderr heartbeat: a throttled progress line
     * (jobs done/total, aggregate simulated accesses/s, ETA) printed
     * as jobs complete, plus a final summary. Default: the
     * C8T_PROGRESS environment variable (set and not "0" = on).
     */
    void setProgress(bool on) { _progress = on; }

    /** Whether the heartbeat is enabled. */
    bool progress() const { return _progress; }

    /** Heartbeat default: C8T_PROGRESS set and not "0". */
    static bool defaultProgress();

    /**
     * Queue every job and return without waiting.
     *
     * The jobs run as one SweepPool batch: on the calling worker's
     * pool when nested (the batch then runs inline, before start
     * returns), else on the installed global pool, else on this
     * sweeper's own pool. The own pool is made at first use, sized
     * min(workers(), jobs), and kept for the sweeper's lifetime, so
     * consecutive sweeps share one thread team; batches on it run in
     * start order. Every job owns all of its state, so the schedule
     * cannot influence the numbers — results are bit-identical for
     * any worker count.
     *
     * @param jobs  The work list; must outlive the returned sweep.
     * @param rc    Warm-up/measure window (shared by all jobs).
     * @param label Names the run in the heartbeat and on its trace
     *              spans.
     */
    PendingSweep start(const std::vector<SweepJob> &jobs,
                       const RunConfig &rc,
                       const std::string &label = "sweep") const;

    /** start(jobs, rc, label).finish(): run every job and collect the
     *  per-job result vectors in submission order. */
    std::vector<std::vector<SchemeRunResult>>
    run(const std::vector<SweepJob> &jobs, const RunConfig &rc,
        const std::string &label = "sweep") const;

  private:
    unsigned _workers;
    bool _progress = defaultProgress();
    mutable std::mutex _poolMutex; ///< guards the first use of _pool
    /** The own pool; shared with every sweep started on it, so a sweep
     *  outliving the sweeper keeps its workers. */
    mutable std::shared_ptr<SweepPool> _pool;
};

/**
 * One SweepJob per calibrated SPEC profile: the workload is the
 * profile's MarkovStream, run through one controller per scheme on
 * @p cache. This is the shape every figure/table sweep uses.
 */
std::vector<SweepJob>
specSweepJobs(const mem::CacheConfig &cache,
              const std::vector<WriteScheme> &schemes);

} // namespace c8t::core

#endif // C8T_CORE_SWEEP_HH

/**
 * @file
 * Sweep worker pool with per-client fair scheduling: the one executor
 * behind every ParallelSweeper::run (DESIGN.md §5). A one-shot sweep
 * runs on a pool scoped to the call; the c8td daemon installs ONE
 * process-wide pool that every sweep shares (DESIGN.md §13), so
 * concurrent client jobs neither oversubscribe the machine nor starve
 * each other. Clients register a slot; work is claimed round-robin
 * across slots at task (= SweepJob / explore-shard) granularity, so a
 * client queueing a thousand shards and a client queueing one small
 * run make progress side by side.
 * Cancellation is per-slot: a disconnected client's unclaimed tasks
 * are dropped and its waiting batch completes with JobCancelled;
 * tasks already running finish (simulation is not interruptible) and
 * their results are discarded by the caller.
 *
 * Installation is by a process global (setGlobalSweepPool):
 * ParallelSweeper::run routes its per-job closures through the pool
 * when one is installed, so runVddSweep / runExplore / every figure
 * driver picks up shared scheduling with zero signature changes. The
 * submitting thread is bound to a client slot with ClientScope (a
 * thread-local), because the submission site sits many frames below
 * the daemon's connection handler. Determinism is untouched: the pool
 * only changes WHEN a job runs, never what it computes — results stay
 * byte-identical to the one-shot drivers.
 *
 * Re-entrancy: a batch submitted from a pool worker thread runs
 * inline on that worker (nested sweeps cannot deadlock waiting for
 * their own thread). A nested ParallelSweeper::run submits to
 * current(), so it spawns no thread and keeps that pool's indices.
 */

#ifndef C8T_CORE_WORKER_POOL_HH
#define C8T_CORE_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace c8t::core
{

/** Thrown by SweepPool::runBatch when the submitting client's slot
 *  was cancelled (daemon: the client disconnected mid-job). */
struct JobCancelled : std::runtime_error
{
    JobCancelled() : std::runtime_error("sweep job cancelled") {}
};

/** Shared worker-thread team with per-client round-robin fairness. */
class SweepPool
{
  public:
    /** One unit of work; receives the executing worker's index. */
    using Task = std::function<void(unsigned worker)>;

    /** Fair-share slot handle. 0 is the built-in default slot used by
     *  submissions that never registered (one-shot drivers). */
    using ClientId = std::uint64_t;

    /** Observable behaviour (metrics, tests). */
    struct Stats
    {
        std::uint64_t tasksRun = 0;
        std::uint64_t tasksCancelled = 0;
        std::uint64_t batches = 0;
        std::uint64_t clientsRegistered = 0;
        std::uint64_t activeClients = 0;
        std::uint64_t queuedTasks = 0;
        unsigned workers = 0;
    };

    /**
     * @param workers Worker threads, started by the first runBatch;
     *                0 = resolve like ParallelSweeper (C8T_JOBS, else
     *                hardware_concurrency()).
     */
    explicit SweepPool(unsigned workers = 0);

    /** Cancels every pending task, then joins the workers. */
    ~SweepPool();

    SweepPool(const SweepPool &) = delete;
    SweepPool &operator=(const SweepPool &) = delete;

    /** Worker threads in the team. */
    unsigned workers() const { return _workers; }

    /** Open a new fair-share slot (daemon: one per connection). */
    ClientId registerClient();

    /** Cancel @p client's pending work and close its slot. */
    void unregisterClient(ClientId client);

    /**
     * Mark @p client cancelled: unclaimed tasks are dropped (their
     * batches complete with JobCancelled) and future runBatch calls
     * for the slot throw JobCancelled immediately. Running tasks
     * finish; their batch still reports JobCancelled.
     */
    void cancelClient(ClientId client);

    /**
     * Execute every task on the pool and block until all complete.
     * Tasks are interleaved round-robin with other clients' pending
     * work. Rethrows the first task exception after the batch drains;
     * throws JobCancelled when the slot was cancelled. Called from a
     * pool worker thread, the batch runs inline on that worker.
     */
    void runBatch(ClientId client, std::vector<Task> tasks);

    /** Counter snapshot. */
    Stats stats() const;

    /**
     * Binds the calling thread to a client slot for the scope's
     * lifetime; ParallelSweeper::run submits under currentClient().
     * Nests (restores the previous binding on destruction).
     */
    class ClientScope
    {
      public:
        explicit ClientScope(ClientId client);
        ~ClientScope();
        ClientScope(const ClientScope &) = delete;
        ClientScope &operator=(const ClientScope &) = delete;

      private:
        ClientId _previous;
    };

    /** The calling thread's bound slot (0 when unbound). */
    static ClientId currentClient();

    /** The pool the calling thread works for, or nullptr. */
    static SweepPool *current();

  private:
    struct Batch
    {
        std::size_t remaining = 0;
        std::exception_ptr error;
    };

    struct Pending
    {
        Task fn;
        std::shared_ptr<Batch> batch;
    };

    struct Slot
    {
        std::deque<Pending> queue;
        bool cancelled = false;
    };

    void workerLoop(unsigned worker);
    /** Complete one task against its batch. Requires _mutex held. */
    void finishOne(Batch &batch, std::exception_ptr error);
    /** Drop @p slot's pending tasks as cancelled. Requires _mutex. */
    void dropPending(Slot &slot);

    const unsigned _workers;
    mutable std::mutex _mutex;
    std::condition_variable _workCv;  ///< workers wait for tasks
    std::condition_variable _batchCv; ///< runBatch waits for drain
    std::map<ClientId, Slot> _slots;  ///< ordered: RR walks key order
    ClientId _rrCursor = 0;
    ClientId _nextClient = 0;
    bool _stopping = false;
    Stats _stats;
    std::once_flag _started; ///< the team starts with the first batch
    std::vector<std::thread> _threads;
};

/** The installed process-wide pool, or nullptr (sweeps scope their own). */
SweepPool *globalSweepPool();

/**
 * Install (or, with nullptr, uninstall) the process-wide pool.
 * ParallelSweeper::run routes through it while installed. The caller
 * keeps ownership and must keep the pool alive until uninstalled and
 * every in-flight sweep has returned.
 */
void setGlobalSweepPool(SweepPool *pool);

} // namespace c8t::core

#endif // C8T_CORE_WORKER_POOL_HH

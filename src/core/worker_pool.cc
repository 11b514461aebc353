/**
 * @file
 * Shared sweep worker pool implementation.
 */

#include "core/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace c8t::core
{

namespace
{

thread_local SweepPool::ClientId t_client = 0;
thread_local SweepPool *t_pool = nullptr;
thread_local unsigned t_workerIndex = 0;

std::atomic<SweepPool *> g_pool{nullptr};

} // anonymous namespace

SweepPool::SweepPool(unsigned workers)
    : _workers(workers ? workers : ParallelSweeper::defaultWorkers())
{
    _stats.workers = _workers;
    _busySeconds.assign(_workers, 0.0);
    _tasks.assign(_workers, 0);
    _slots[0]; // the default slot for unregistered submissions
}

SweepPool::~SweepPool()
{
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
        for (auto &entry : _slots)
            dropPending(entry.second);
    }
    _workCv.notify_all();
    _batchCv.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

SweepPool::ClientId
SweepPool::registerClient()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    const ClientId id = ++_nextClient;
    _slots[id];
    ++_stats.clientsRegistered;
    return id;
}

void
SweepPool::unregisterClient(ClientId client)
{
    if (client == 0)
        return; // the default slot is permanent
    cancelClient(client);
    const std::lock_guard<std::mutex> lock(_mutex);
    _slots.erase(client);
}

void
SweepPool::cancelClient(ClientId client)
{
    if (client == 0)
        return;
    const std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _slots.find(client);
    if (it == _slots.end())
        return;
    it->second.cancelled = true;
    dropPending(it->second);
}

void
SweepPool::dropPending(Slot &slot, const Batch *batch)
{
    std::erase_if(slot.queue, [&](const Pending &p) {
        if (batch && p.batch.get() != batch)
            return false;
        ++_stats.tasksCancelled;
        finishOne(*p.batch, std::make_exception_ptr(JobCancelled()));
        return true;
    });
}

void
SweepPool::finishOne(Batch &batch, std::exception_ptr error)
{
    if (error && !batch.error)
        batch.error = error;
    if (--batch.remaining != 0)
        return;
    if (--_batchesInFlight == 0)
        reportActiveSpan();
    _batchCv.notify_all();
}

void
SweepPool::reportActiveSpan()
{
    // The span runs from the first batch queued on an idle pool to the
    // drain of the last one, so overlapping batches share one span and
    // a worker's idle time is counted once.
    if (obs::prof::enabled()) {
        const double span = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                _activeSince)
                                .count();
        for (unsigned w = 0; w < _workers; ++w) {
            obs::globalMetrics().noteWorker(
                w, _busySeconds[w], std::max(0.0, span - _busySeconds[w]),
                _tasks[w]);
        }
    }
    std::fill(_busySeconds.begin(), _busySeconds.end(), 0.0);
    std::fill(_tasks.begin(), _tasks.end(), 0);
}

SweepPool::Ticket
SweepPool::submit(ClientId client, std::vector<Task> tasks)
{
    Ticket ticket;
    ticket._client = client;
    if (tasks.empty())
        return ticket;

    ticket._batch = std::make_shared<Batch>();
    Batch &batch = *ticket._batch;
    if (t_pool) {
        // Nested sweep from a worker thread: run inline rather than
        // queueing work this thread would then block on.
        try {
            for (Task &t : tasks)
                t(t_workerIndex);
        } catch (...) {
            batch.error = std::current_exception();
        }
        return ticket;
    }

    batch.remaining = tasks.size();
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_stopping)
            throw std::runtime_error("SweepPool: shutting down");
        const auto it = _slots.find(client);
        if (it == _slots.end())
            throw std::invalid_argument("SweepPool: unknown client " +
                                        std::to_string(client));
        if (it->second.cancelled)
            throw JobCancelled();
        for (Task &t : tasks)
            it->second.queue.push_back(Pending{std::move(t), ticket._batch});
        ++_stats.batches;
        if (_batchesInFlight++ == 0)
            _activeSince = std::chrono::steady_clock::now();
    }
    // Start the team once the first batch is queued: a new thread then
    // claims work on the CPU it was created on, where a sleeping one is
    // woken onto the submitter's CPU (DESIGN.md §5, "Thread model").
    // noexcept: a failed spawn ends the program, as it did when the
    // constructor spawned, instead of unwinding past queued tasks that
    // reference the caller's frame.
    std::call_once(_started, [this]() noexcept {
        _threads.reserve(_workers);
        for (unsigned w = 0; w < _workers; ++w)
            _threads.emplace_back([this, w] { workerLoop(w); });
    });
    _workCv.notify_all();
    return ticket;
}

void
SweepPool::wait(Ticket ticket, bool abandon)
{
    if (!ticket._batch)
        return;
    const Batch &batch = *ticket._batch;
    std::unique_lock<std::mutex> lock(_mutex);
    if (abandon) {
        if (const auto it = _slots.find(ticket._client); it != _slots.end())
            dropPending(it->second, &batch);
    }
    _batchCv.wait(lock, [&batch] { return batch.remaining == 0; });
    if (batch.error)
        std::rethrow_exception(batch.error);
    // Every task may have been claimed before the cancel landed; the
    // contract is still "cancelled batches throw".
    const auto it = _slots.find(ticket._client);
    if (it != _slots.end() && it->second.cancelled)
        throw JobCancelled();
}

void
SweepPool::workerLoop(unsigned worker)
{
    t_pool = this;
    t_workerIndex = worker;
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        // Claim the next task round-robin across slots: resume the
        // key-order walk just past the slot served last, so a slot
        // with a deep queue cannot shut the others out.
        Pending pending;
        bool found = false;
        if (!_slots.empty()) {
            auto it = _slots.upper_bound(_rrCursor);
            for (std::size_t n = 0; n < _slots.size(); ++n) {
                if (it == _slots.end())
                    it = _slots.begin();
                if (!it->second.queue.empty()) {
                    pending = std::move(it->second.queue.front());
                    it->second.queue.pop_front();
                    _rrCursor = it->first;
                    found = true;
                    break;
                }
                ++it;
            }
        }
        if (!found) {
            if (_stopping)
                return;
            _workCv.wait(lock);
            continue;
        }

        lock.unlock();
        const auto t0 = std::chrono::steady_clock::now();
        std::exception_ptr error;
        try {
            pending.fn(worker);
        } catch (...) {
            error = std::current_exception();
        }
        const auto t1 = std::chrono::steady_clock::now();
        lock.lock();
        _busySeconds[worker] += std::chrono::duration<double>(t1 - t0).count();
        ++_tasks[worker];
        ++_stats.tasksRun;
        finishOne(*pending.batch, error);
    }
}

SweepPool::Stats
SweepPool::stats() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    Stats out = _stats;
    out.activeClients = _slots.size() - 1; // minus the default slot
    std::uint64_t queued = 0;
    for (const auto &entry : _slots)
        queued += entry.second.queue.size();
    out.queuedTasks = queued;
    return out;
}

SweepPool::ClientScope::ClientScope(ClientId client)
    : _previous(t_client)
{
    t_client = client;
}

SweepPool::ClientScope::~ClientScope() { t_client = _previous; }

SweepPool::ClientId
SweepPool::currentClient()
{
    return t_client;
}

SweepPool *
SweepPool::current()
{
    return t_pool;
}

SweepPool *
globalSweepPool()
{
    return g_pool.load(std::memory_order_acquire);
}

void
setGlobalSweepPool(SweepPool *pool)
{
    g_pool.store(pool, std::memory_order_release);
}

} // namespace c8t::core

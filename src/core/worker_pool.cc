/**
 * @file
 * Shared sweep worker pool implementation.
 */

#include "core/worker_pool.hh"

#include <atomic>
#include <utility>

#include "core/sweep.hh"

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
    const std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _slots.find(client);
    if (it == _slots.end())
        return;
    dropPending(it->second);
    _slots.erase(it);
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
SweepPool::dropPending(Slot &slot)
{
    for (Pending &p : slot.queue) {
        ++_stats.tasksCancelled;
        finishOne(*p.batch, std::make_exception_ptr(JobCancelled()));
    }
    slot.queue.clear();
}

void
SweepPool::finishOne(Batch &batch, std::exception_ptr error)
{
    if (error && !batch.error)
        batch.error = error;
    if (--batch.remaining == 0)
        _batchCv.notify_all();
}

void
SweepPool::runBatch(ClientId client, std::vector<Task> tasks)
{
    if (tasks.empty())
        return;

    if (t_pool) {
        // Nested sweep from a worker thread: run inline rather than
        // queueing work this thread would then block on.
        for (Task &t : tasks)
            t(t_workerIndex);
        return;
    }

    const auto batch = std::make_shared<Batch>();
    batch->remaining = tasks.size();
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
            it->second.queue.push_back(Pending{std::move(t), batch});
        ++_stats.batches;
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

    std::unique_lock<std::mutex> lock(_mutex);
    _batchCv.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error)
        std::rethrow_exception(batch->error);
    // Every task may have been claimed before the cancel landed; the
    // contract is still "cancelled batches throw".
    const auto it = _slots.find(client);
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
        std::exception_ptr error;
        try {
            pending.fn(worker);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
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

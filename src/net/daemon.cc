/**
 * @file
 * Sweep-service daemon implementation.
 */

#include "net/daemon.hh"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "app/job_runner.hh"
#include "core/job_spec.hh"
#include "core/worker_pool.hh"
#include "net/frame.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"

namespace c8t::net
{

namespace
{

using Clock = std::chrono::steady_clock;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Chrome-trace pid for the daemon's connection tracks (1 = sweep
 *  workers, 2 = per-access rings). */
constexpr int kTracePid = 3;

} // anonymous namespace

/** Per-connection state shared by the reader/executor/heartbeat
 *  threads. */
struct Daemon::Connection
{
    std::uint64_t id = 0;
    Fd fd;
    core::SweepPool::ClientId client = 0;

    std::mutex mutex; ///< queue + lifecycle
    std::condition_variable cv;
    std::deque<std::string> queue; ///< request payloads, FIFO
    std::size_t running = 0;       ///< 0 or 1 (executor is serial)
    bool closed = false;           ///< reader saw EOF / fatal error

    std::mutex writeMutex; ///< one frame at a time on the wire
    std::uint64_t bytesOut = 0;
    bool writeFailed = false;

    std::uint64_t nextJob = 0;  ///< request index (reader)
    std::atomic<std::uint64_t> activeJob{0};
    std::atomic<bool> jobActive{false};
    Clock::time_point jobStart;

    std::uint64_t jobsDone = 0;
    double startUs = 0.0; ///< connection open, trace timebase

    std::thread reader;
    std::thread executor;
    std::atomic<bool> finished{false};

    /**
     * Send one frame. Advisory (droppable) frames are skipped once
     * the response-byte budget is spent; mandatory frames always go
     * out. A failed write means the peer is gone — that (not read-side
     * EOF, which a half-closing client produces legitimately) is the
     * daemon's disconnect signal, and it runs the cancel path.
     * Returns false when the frame was dropped or the wire is dead.
     */
    bool send(Daemon &d, FrameType type, const std::string &payload,
              bool droppable)
    {
        const std::string bytes = encodeFrame(type, payload);
        bool just_died = false;
        {
            const std::lock_guard<std::mutex> lock(writeMutex);
            if (writeFailed)
                return false;
            if (droppable && d._cfg.responseByteBudget &&
                bytesOut + bytes.size() > d._cfg.responseByteBudget) {
                d._framesDropped.fetch_add(1,
                                           std::memory_order_relaxed);
                return false;
            }
            try {
                writeAll(fd.get(), bytes.data(), bytes.size());
                bytesOut += bytes.size();
                d._bytesOut.fetch_add(bytes.size(),
                                      std::memory_order_relaxed);
            } catch (const std::exception &) {
                writeFailed = true;
                just_died = true;
            }
        }
        if (just_died)
            d.onWireDead(*this);
        return !just_died;
    }
};

Daemon::Daemon(DaemonConfig cfg) : _cfg(std::move(cfg))
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("daemon: cannot create stop pipe");
    _stopRead = Fd(fds[0]);
    _stopWrite = Fd(fds[1]);
}

Daemon::~Daemon() = default;

void
Daemon::stop()
{
    // Async-signal-safe: a single write(2); serve()'s accept poll
    // wakes on the pipe.
    const char byte = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(_stopWrite.get(), &byte, 1);
}

void
Daemon::publishMetrics()
{
    obs::Metrics::DaemonSnapshot snap;
    snap.connectionsActive = _connectionsActive.load();
    snap.connectionsTotal = _connectionsTotal.load();
    snap.jobsAccepted = _jobsAccepted.load();
    snap.jobsRunning = _jobsRunning.load();
    snap.jobsSucceeded = _jobsSucceeded.load();
    snap.jobsFailed = _jobsFailed.load();
    snap.jobsCancelled = _jobsCancelled.load();
    snap.bytesOut = _bytesOut.load();
    snap.framesDropped = _framesDropped.load();
    const core::MemoStats memo = _memo.stats();
    snap.memoHits = memo.hits;
    snap.memoBytes = memo.bytes;
    snap.memoEvictions = memo.evictions;
    obs::globalMetrics().noteDaemon(snap);

    if (_pool) {
        const core::SweepPool::Stats ps = _pool->stats();
        obs::Metrics::PoolStats out;
        out.tasksRun = ps.tasksRun;
        out.tasksCancelled = ps.tasksCancelled;
        out.batches = ps.batches;
        out.activeClients = ps.activeClients;
        out.queuedTasks = ps.queuedTasks;
        out.workers = ps.workers;
        obs::globalMetrics().setPool(out);
    }
}

void
Daemon::connectionReader(const std::shared_ptr<Connection> &conn)
{
    FrameReader reader;
    char buf[64 * 1024];
    bool protocol_fault = false;
    std::string fault_what;

    try {
        for (;;) {
            const std::size_t n =
                readSome(conn->fd.get(), buf, sizeof(buf));
            if (n == 0) {
                if (reader.inProgress() && !_draining.load()) {
                    // EOF inside a frame: a truncated request. There
                    // is no job to answer; just note it.
                    std::cerr << "c8td: connection " << conn->id
                              << ": truncated frame at EOF\n";
                }
                break;
            }
            reader.feed(buf, n);
            Frame f;
            while (reader.next(f)) {
                if (f.type != FrameType::Request) {
                    throw ProtocolError(
                        std::string("client sent a ") +
                        net::toString(f.type) + " frame");
                }
                _jobsAccepted.fetch_add(1, std::memory_order_relaxed);
                std::unique_lock<std::mutex> lock(conn->mutex);
                // In-flight budget: backpressure. Holding the frame
                // here (not reading more bytes) keeps response order
                // exact and pushes the cost onto the greedy client's
                // socket buffer.
                conn->cv.wait(lock, [&] {
                    return conn->queue.size() + conn->running <
                               _cfg.maxInflight ||
                           conn->closed;
                });
                if (conn->closed)
                    break;
                conn->queue.push_back(std::move(f.payload));
                conn->cv.notify_all();
            }
        }
    } catch (const ProtocolError &e) {
        protocol_fault = true;
        fault_what = e.what();
    } catch (const std::exception &e) {
        protocol_fault = true;
        fault_what = e.what();
    }

    if (protocol_fault) {
        // The stream is unrecoverable; tell the client why, then
        // abandon its work.
        conn->send(*this, FrameType::Error,
                   "{\"job\":-1,\"error\":\"" +
                       stats::jsonEscape(fault_what) + "\"}",
                   /*droppable=*/false);
    }

    // Plain EOF just ends the request stream (a pipelining client
    // half-closes after its last request; a SIGTERM drain SHUT_RDs
    // us): accepted jobs still run and deliver their finals. A client
    // that actually vanished is detected on the *write* side — the
    // next heartbeat/progress/final frame fails and runs the cancel
    // path (onWireDead).
    {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        conn->closed = true;
    }
    conn->cv.notify_all();
    if (protocol_fault)
        onWireDead(*conn);
}

void
Daemon::onWireDead(Connection &conn)
{
    // The peer is unreachable: nothing it asked for can be delivered,
    // so drop its queue and cancel its slot in the shared pool (the
    // in-flight batch completes with JobCancelled; unclaimed tasks
    // are dropped, freeing the workers for live clients).
    if (_pool)
        _pool->cancelClient(conn.client);
    {
        const std::lock_guard<std::mutex> lock(conn.mutex);
        conn.closed = true;
        conn.queue.clear();
    }
    conn.cv.notify_all();
}

void
Daemon::connectionExecutor(const std::shared_ptr<Connection> &conn)
{
    const core::SweepPool::ClientScope scope(conn->client);

    for (;;) {
        std::string payload;
        {
            std::unique_lock<std::mutex> lock(conn->mutex);
            conn->cv.wait(lock, [&] {
                return !conn->queue.empty() || conn->closed;
            });
            if (conn->queue.empty())
                break; // closed and drained
            payload = std::move(conn->queue.front());
            conn->queue.pop_front();
            conn->running = 1;
            conn->cv.notify_all(); // reader backpressure release
        }

        const std::uint64_t job = conn->nextJob++;
        conn->activeJob.store(job);
        conn->jobStart = Clock::now();
        conn->jobActive.store(true);
        _jobsRunning.fetch_add(1, std::memory_order_relaxed);
        bool cancelled = false;

        try {
            const core::JobSpec spec =
                core::JobSpec::fromJsonText(payload);

            // Only a computing request streams progress and partial
            // frames; a memo hit, also one that waited for an
            // identical in-flight request, sends just its final.
            const auto compute = [&] {
                app::JobHooks hooks;
                hooks.onProgress = [&](std::uint64_t done,
                                       std::uint64_t total) {
                    std::ostringstream os;
                    os << "{\"job\":" << job
                       << ",\"state\":\"running\",\"done\":" << done
                       << ",\"total\":" << total << "}";
                    conn->send(*this, FrameType::Progress, os.str(),
                               /*droppable=*/true);
                };
                hooks.onPartial = [&](const std::string &partial) {
                    std::ostringstream os;
                    os << "{\"job\":" << job
                       << ",\"partial\":" << partial << "}";
                    conn->send(*this, FrameType::Partial, os.str(),
                               /*droppable=*/true);
                };
                // The daemon never embeds the process profile: the
                // document must stay byte-comparable to a non-profiled
                // one-shot run regardless of server configuration.
                return app::runJobSpec(spec, _cfg.workers, hooks,
                                       /*includeProfile=*/false)
                    .document;
            };

            std::shared_ptr<const std::string> document;
            if (_cfg.memoizeResults) {
                // Blocks this executor, never a pool worker, while an
                // identical request computes; a leader that throws
                // (error or its client's cancellation) leaves the key
                // to the next waiter.
                bool hit = false;
                document = _memo.getOrCompute(spec.toJson(), compute, hit);
            } else {
                document = std::make_shared<const std::string>(compute());
            }

            conn->send(*this, FrameType::Final, *document,
                       /*droppable=*/false);
            _jobsSucceeded.fetch_add(1, std::memory_order_relaxed);
        } catch (const core::JobCancelled &) {
            _jobsCancelled.fetch_add(1, std::memory_order_relaxed);
            cancelled = true;
        } catch (const std::exception &e) {
            std::ostringstream os;
            os << "{\"job\":" << job << ",\"error\":\""
               << stats::jsonEscape(e.what()) << "\"}";
            conn->send(*this, FrameType::Error, os.str(),
                       /*droppable=*/false);
            _jobsFailed.fetch_add(1, std::memory_order_relaxed);
        }

        const double wall_us =
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      conn->jobStart)
                .count();
        conn->jobActive.store(false);
        _jobsRunning.fetch_sub(1, std::memory_order_relaxed);
        obs::globalMetrics().recordDaemonJobNs(
            static_cast<std::uint64_t>(wall_us * 1000.0));
        ++conn->jobsDone;

        if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
            trace->completeEvent(
                "conn" + std::to_string(conn->id) + "/job" +
                    std::to_string(job),
                "daemon", kTracePid,
                static_cast<int>(conn->id) + 1,
                usSince(Clock::time_point{}) - wall_us - _traceT0Us,
                wall_us);
        }

        // The job's result-building scopes ran on this thread after
        // its sweep flushed the workers; fold them before the rewrite.
        if (obs::prof::enabled())
            obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
        publishMetrics();
        obs::writeGlobalMetrics();

        {
            const std::lock_guard<std::mutex> lock(conn->mutex);
            conn->running = 0;
            conn->cv.notify_all();
        }
        if (cancelled)
            break;
    }

    // Last one out: close the wire and the pool slot.
    conn->fd.shutdownBoth();
    if (_pool)
        _pool->unregisterClient(conn->client);
    if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
        std::ostringstream args;
        args << "{\"jobs\":" << conn->jobsDone << "}";
        trace->completeEvent(
            "conn" + std::to_string(conn->id), "daemon", kTracePid,
            static_cast<int>(conn->id) + 1, conn->startUs - _traceT0Us,
            usSince(Clock::time_point{}) - conn->startUs, args.str());
    }
    _connectionsActive.fetch_sub(1, std::memory_order_relaxed);
    publishMetrics();
    conn->finished.store(true);
}

void
Daemon::heartbeatLoop()
{
    if (!_cfg.heartbeatMs)
        return;
    while (!_draining.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(_cfg.heartbeatMs));
        std::vector<std::shared_ptr<Connection>> conns;
        {
            const std::lock_guard<std::mutex> lock(_connMutex);
            conns = _connections;
        }
        for (const auto &conn : conns) {
            if (!conn->jobActive.load())
                continue;
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - conn->jobStart)
                    .count();
            std::ostringstream os;
            os << "{\"job\":" << conn->activeJob.load()
               << ",\"state\":\"heartbeat\",\"elapsed_ms\":"
               << static_cast<std::uint64_t>(elapsed_ms) << "}";
            conn->send(*this, FrameType::Progress, os.str(),
                       /*droppable=*/true);
        }
        publishMetrics();
        obs::writeGlobalMetrics();
    }
}

void
Daemon::reapFinished()
{
    const std::lock_guard<std::mutex> lock(_connMutex);
    auto it = _connections.begin();
    while (it != _connections.end()) {
        if ((*it)->finished.load()) {
            if ((*it)->reader.joinable())
                (*it)->reader.join();
            if ((*it)->executor.joinable())
                (*it)->executor.join();
            it = _connections.erase(it);
        } else {
            ++it;
        }
    }
}

void
Daemon::serve()
{
    if (_cfg.socketPath.empty())
        throw std::invalid_argument("daemon: no socket path");

    _pool = std::make_unique<core::SweepPool>(_cfg.workers);
    core::setGlobalSweepPool(_pool.get());
    _traceT0Us = usSince(Clock::time_point{});

    UnixListener listener(_cfg.socketPath);
    // Publish before ready(): once a caller sees ready(), the global
    // daemon snapshot is this daemon's, not a previous one's.
    publishMetrics();
    obs::writeGlobalMetrics();
    _ready.store(true);

    std::thread heartbeat([this] { heartbeatLoop(); });

    for (;;) {
        Fd conn_fd = listener.accept(_stopRead.get());
        if (!conn_fd.valid())
            break; // stop() fired
        reapFinished();

        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(conn_fd);
        conn->client = _pool->registerClient();
        conn->startUs = usSince(Clock::time_point{});
        {
            const std::lock_guard<std::mutex> lock(_connMutex);
            conn->id = _nextConnId++;
            _connections.push_back(conn);
        }
        _connectionsTotal.fetch_add(1, std::memory_order_relaxed);
        _connectionsActive.fetch_add(1, std::memory_order_relaxed);
        publishMetrics();

        conn->reader =
            std::thread([this, conn] { connectionReader(conn); });
        conn->executor =
            std::thread([this, conn] { connectionExecutor(conn); });
    }

    // Graceful drain: stop reading new requests (our own SHUT_RD; the
    // reader sees EOF with _draining set and does NOT cancel), let
    // executors finish the accepted queues and deliver their finals.
    _draining.store(true);
    {
        const std::lock_guard<std::mutex> lock(_connMutex);
        for (const auto &conn : _connections)
            conn->fd.shutdownRead();
    }
    {
        std::vector<std::shared_ptr<Connection>> conns;
        {
            const std::lock_guard<std::mutex> lock(_connMutex);
            conns = _connections;
        }
        for (const auto &conn : conns) {
            if (conn->reader.joinable())
                conn->reader.join();
            if (conn->executor.joinable())
                conn->executor.join();
        }
        const std::lock_guard<std::mutex> lock(_connMutex);
        _connections.clear();
    }
    if (heartbeat.joinable())
        heartbeat.join();

    core::setGlobalSweepPool(nullptr);
    _pool.reset();
    _ready.store(false);
    publishMetrics();
    obs::writeGlobalMetrics();
}

} // namespace c8t::net

/**
 * @file
 * Sweep-service daemon implementation.
 */

#include "net/daemon.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "app/job_runner.hh"
#include "core/job_spec.hh"
#include "core/worker_pool.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"

namespace c8t::net
{

namespace
{

using Clock = std::chrono::steady_clock;
using std::chrono::ceil, std::chrono::milliseconds;
using namespace std::chrono_literals;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Chrome-trace pid for the daemon's connection tracks (1 = sweep
 *  workers, 2 = per-access rings). */
constexpr int kTracePid = 3;

/** How long an executor waits on its connection for the next request
 *  before handing the connection back to the loop: well above a
 *  client's turnaround after an answer, well below any job. */
constexpr timespec kLinger{0, 200'000};

/** One accepted request. */
struct Job
{
    std::string payload;
    std::uint64_t index = 0;    ///< per-connection request index
    Clock::time_point accepted; ///< latency and heartbeat timebase
};

/** One frame not yet fully written. */
struct Pending
{
    std::string bytes;
    bool answer = false; ///< a request's final or error frame
};

} // anonymous namespace

/** Per-connection state. One thread reads the socket at a time: the
 *  loop while the connection is idle, its executor while it holds it
 *  (scheduled). */
struct Daemon::Connection
{
    std::uint64_t id = 0;
    Fd fd;
    core::SweepPool::ClientId client = 0;
    Clock::time_point opened; ///< connection open (trace span)
    std::mutex mutex;     ///< guards the members below
    FrameReader reader;
    std::deque<Job> queue;      ///< accepted, not started, FIFO
    std::optional<Job> current; ///< running or parked; set by its executor
    bool scheduled = false; ///< ready, held by an executor or parked
    bool readDone = false;  ///< EOF, protocol fault, drain or dead
    bool dead = false;      ///< a write failed: the peer is gone
    std::deque<Pending> out;
    std::size_t outOff = 0;     ///< bytes of out.front() written
    std::size_t answers = 0;    ///< answers among out
    Clock::time_point outSince; ///< last progress on out
    std::uint64_t nextJob = 0, jobsDone = 0;

    std::size_t inflight() const
    {
        return queue.size() + (current ? 1 : 0) + answers;
    }
};

Daemon::Daemon(DaemonConfig cfg) : _cfg(std::move(cfg))
{
    int fds[2];
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0)
        throw std::runtime_error("daemon: cannot create the self-pipe");
    _pipeRead = Fd(fds[0]);
    _pipeWrite = Fd(fds[1]);
}

Daemon::~Daemon() = default;

void
Daemon::stop()
{
    // Async-signal-safe: a single write(2).
    const char byte = 1;
    [[maybe_unused]] const ssize_t r =
        ::write(_pipeWrite.get(), &byte, 1);
}

void
Daemon::wakeLoop()
{
    // At most one wake byte is pending, so stop()'s byte always fits.
    const char byte = 0;
    if (!_wakePending.exchange(true))
        [[maybe_unused]] const ssize_t r =
            ::write(_pipeWrite.get(), &byte, 1);
}

void
Daemon::publishMetrics()
{
    const core::MemoStats memo = _memo.stats();
    obs::globalMetrics().noteDaemon(
        {.connectionsActive = _connectionsActive,
         .connectionsTotal = _connectionsTotal,
         .jobsAccepted = _jobsAccepted,
         .jobsRunning = _jobsRunning,
         .jobsSucceeded = _jobsSucceeded,
         .jobsFailed = _jobsFailed,
         .jobsCancelled = _jobsCancelled,
         .memoHits = memo.hits,
         .bytesOut = _bytesOut,
         .framesDropped = _framesDropped,
         .memoBytes = memo.bytes,
         .memoEvictions = memo.evictions});
    if (_pool) {
        const core::SweepPool::Stats ps = _pool->stats();
        obs::globalMetrics().setPool({ps.tasksRun, ps.tasksCancelled,
                                      ps.batches, ps.activeClients,
                                      ps.queuedTasks, ps.workers});
    }
}

void
Daemon::sendLocked(Connection &c, FrameType type,
                   const std::string &payload)
{
    // An advisory frame never waits behind queued bytes, so a stalled
    // client holds at most its unwritten answers plus one frame.
    const bool advisory =
        type == FrameType::Progress || type == FrameType::Partial;
    if (c.dead)
        return;
    if (advisory && !c.out.empty()) {
        ++_framesDropped;
        return;
    }
    const bool was_empty = c.out.empty();
    c.out.push_back({encodeFrame(type, payload), !advisory});
    c.answers += !advisory;
    c.outSince = Clock::now();
    flushLocked(c);
    if (was_empty && !c.out.empty())
        wakeLoop(); // the loop polls for POLLOUT
}

void
Daemon::flushLocked(Connection &c)
{
    try {
        while (!c.out.empty()) {
            const std::string &bytes = c.out.front().bytes;
            const std::size_t n = sendSome(
                c.fd.get(), bytes.data() + c.outOff, bytes.size() - c.outOff);
            if (!n)
                return; // the socket is full
            _bytesOut += n;
            c.outSince = Clock::now();
            if ((c.outOff += n) < bytes.size())
                continue;
            c.answers -= c.out.front().answer;
            c.out.pop_front();
            c.outOff = 0;
        }
    } catch (const std::exception &) {
        // A failed write, not read-side EOF (which a half-closing
        // client produces legitimately), is the disconnect signal.
        c.dead = true;
        abandonLocked(c);
    }
}

void
Daemon::abandonLocked(Connection &c)
{
    // Cancelling the slot drops its unclaimed tasks; its in-flight
    // batch completes with JobCancelled.
    c.readDone = true;
    c.queue.clear();
    if (c.dead) {
        c.out.clear();
        c.outOff = c.answers = 0;
    }
    _pool->cancelClient(c.client);
    wakeLoop();
}

void
Daemon::receiveLocked(Connection &c)
{
    char buf[64 * 1024];
    try {
        const std::optional<std::size_t> n =
            recvSome(c.fd.get(), buf, sizeof(buf));
        if (!n)
            return;
        c.reader.feed(buf, *n);
        if (*n)
            return;
        // EOF just ends the request stream (pipelining clients
        // half-close): accepted jobs still run. EOF inside a frame is
        // a truncated request with no job to answer.
        if (c.reader.inProgress())
            std::cerr << "c8td: connection " << c.id
                      << ": truncated frame at EOF\n";
        c.readDone = true;
    } catch (const std::exception &e) {
        faultLocked(c, e);
    }
}

void
Daemon::admitLocked(Connection &c)
{
    // Past the in-flight bound decoded frames wait in the reader and
    // nobody reads the socket: backpressure that keeps response order
    // exact and leaves the cost in the greedy client's socket buffer.
    try {
        Frame f;
        while (!c.readDone && c.inflight() < _cfg.maxInflight &&
               c.reader.next(f)) {
            if (f.type != FrameType::Request) {
                throw ProtocolError(std::string("client sent a ") +
                                    net::toString(f.type) + " frame");
            }
            c.queue.push_back({std::move(f.payload), c.nextJob++,
                               Clock::now()});
            ++_jobsAccepted;
        }
    } catch (const ProtocolError &e) {
        faultLocked(c, e);
    }
}

void
Daemon::faultLocked(Connection &c, const std::exception &e)
{
    // The stream is unrecoverable: say why, abandon its work.
    sendLocked(c, FrameType::Error,
               "{\"job\":-1,\"error\":\"" + stats::jsonEscape(e.what()) +
                   "\"}");
    abandonLocked(c);
}

bool
Daemon::runNext()
{
    ConnPtr cp;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _readyCv.wait(lock,
                      [&] { return _teamStop || !_readyQueue.empty(); });
        if (_teamStop)
            return false;
        cp = std::move(_readyQueue.front());
        _readyQueue.pop_front();
    }
    // Serve the connection while it has work and nobody else waits.
    for (;;) {
        Connection &c = *cp;
        {
            const std::lock_guard<std::mutex> lock(c.mutex);
            if (!c.current) {
                if (c.queue.empty()) { // abandoned while it waited
                    c.scheduled = false;
                    wakeLoop();
                    return true;
                }
                c.current = std::move(c.queue.front());
                c.queue.pop_front();
                ++_jobsRunning;
            }
        }
        const Job &job = *c.current;
        const std::string tag = "{\"job\":" + std::to_string(job.index) + ",";
        const auto send = [&](FrameType type, const std::string &payload) {
            const std::lock_guard<std::mutex> lock(c.mutex);
            sendLocked(c, type, payload);
        };
        const core::SweepPool::ClientScope scope(c.client);
        std::string key; // set while this request leads its memo key
        // The leader's end, whatever its outcome, puts the requests
        // parked on its key back on the ready queue.
        const auto unpark = [&] {
            const std::lock_guard<std::mutex> lock(_mutex);
            const auto it = _computing.find(key);
            for (ConnPtr &p : it->second)
                _readyQueue.push_back(std::move(p));
            if (!it->second.empty())
                _readyCv.notify_all();
            _computing.erase(it);
        };

        try {
            const core::JobSpec spec = core::JobSpec::fromJsonText(job.payload);
            std::string canonical = spec.toJson();
            {
                // A follower parks on its key instead of holding an
                // executor; the leader's end puts it back on the ready
                // queue, to be served from the memo or to lead in turn.
                const std::lock_guard<std::mutex> lock(_mutex);
                const auto [it, leader] =
                    _computing.try_emplace(std::move(canonical));
                if (!leader) {
                    it->second.push_back(cp);
                    return true;
                }
                key = it->first;
            }
            // Only a computing request streams progress and partial
            // frames; a memo hit sends just its final.
            const auto compute = [&] {
                app::JobHooks hooks;
                hooks.onProgress = [&](std::uint64_t done,
                                       std::uint64_t total) {
                    send(FrameType::Progress,
                         tag + "\"state\":\"running\",\"done\":" +
                             std::to_string(done) +
                             ",\"total\":" + std::to_string(total) + "}");
                };
                hooks.onPartial = [&](const std::string &partial) {
                    send(FrameType::Partial,
                         tag + "\"partial\":" + partial + "}");
                };
                // The daemon never embeds the process profile: the
                // document must stay byte-comparable to a non-profiled
                // one-shot run regardless of server configuration.
                return app::runJobSpec(spec, _cfg.workers, hooks,
                                       /*includeProfile=*/false)
                    .document;
            };
            // Only the leader fills its key, so the memo never blocks; a
            // leader that throws (error or its client's cancellation)
            // leaves the key to the next parked request.
            bool hit = false;
            std::shared_ptr<const std::string> document;
            try {
                document = _memo.getOrCompute(key, compute, hit);
            } catch (...) {
                unpark();
                throw;
            }
            unpark();
            send(FrameType::Final, *document);
            ++_jobsSucceeded;
        } catch (const core::JobCancelled &) {
            ++_jobsCancelled;
        } catch (const std::exception &e) {
            send(FrameType::Error,
                 tag + "\"error\":\"" + stats::jsonEscape(e.what()) + "\"}");
            ++_jobsFailed;
        }

        const double wall_us = usSince(job.accepted);
        --_jobsRunning;
        obs::globalMetrics().recordDaemonJobNs(
            static_cast<std::uint64_t>(wall_us * 1000.0));
        if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
            trace->completeEvent(
                "conn" + std::to_string(c.id) + "/job" +
                    std::to_string(job.index),
                "daemon", kTracePid, static_cast<int>(c.id) + 1,
                trace->usAt(job.accepted), wall_us);
        }
        // The job's result-building scopes ran on this thread after its
        // sweep flushed the workers; fold them before the rewrite.
        if (obs::prof::enabled())
            obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
        publishMetrics();
        obs::writeGlobalMetrics();

        bool others = false; // connections wait for an executor
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            others = !_readyQueue.empty();
        }
        std::unique_lock<std::mutex> lock(c.mutex);
        c.current.reset();
        ++c.jobsDone;
        admitLocked(c);
        if (c.queue.empty() && !c.readDone && !others &&
            c.inflight() < _cfg.maxInflight) {
            // Linger: a client's next request usually follows its answer
            // within microseconds. Waiting for it on the socket runs it
            // without a hand-off through the loop; only while no other
            // connection waits for an executor, so it costs nobody a turn.
            lock.unlock();
            pollfd p{c.fd.get(), POLLIN, 0};
            const bool readable = ::ppoll(&p, 1, &kLinger, nullptr) > 0;
            lock.lock();
            if (readable) {
                receiveLocked(c);
                admitLocked(c);
            }
        }
        c.scheduled = !c.queue.empty();
        if (!c.scheduled) {
            wakeLoop(); // the loop reads the connection again, or retires it
            return true;
        }
        if (others) { // this executor takes one more: no notify
            const std::lock_guard<std::mutex> ready(_mutex);
            _readyQueue.push_back(cp);
            return true;
        }
    }
}

void
Daemon::pollLoop(UnixListener &listener)
{
    const milliseconds period(_cfg.heartbeatMs);
    Clock::time_point next_beat = Clock::now() + period;
    bool accepting = true; // false: out of descriptors until a retire
    std::vector<pollfd> fds;

    for (;;) {
        // Settle every connection: queue an idle one's decoded
        // requests and dispatch it, heartbeat, retire, choose events.
        const Clock::time_point now = Clock::now();
        const bool beat = period.count() && now >= next_beat;
        if (beat)
            next_beat = now + period;
        fds.assign({{_pipeRead.get(), POLLIN, 0},
                    {accepting && !_draining ? listener.fd() : -1, POLLIN,
                     0}});
        std::size_t kept = 0, started = 0;
        for (ConnPtr &c : _connections) {
            std::unique_lock<std::mutex> lock(c->mutex);
            if (!c->scheduled)
                admitLocked(*c);
            const bool start = !c->scheduled && !c->queue.empty();
            if (start) {
                c->scheduled = true;
                const std::lock_guard<std::mutex> ready(_mutex);
                _readyQueue.push_back(c);
            }
            // Every accepted, unanswered job (waiting, parked or
            // running) gets heartbeats: the probe that finds a
            // vanished client.
            const Job *job = c->current       ? &*c->current
                             : c->queue.empty() ? nullptr
                                                : &c->queue.front();
            if (beat && job) {
                sendLocked(*c, FrameType::Progress,
                           "{\"job\":" + std::to_string(job->index) +
                               ",\"state\":\"heartbeat\",\"elapsed_ms\":" +
                               std::to_string((now - job->accepted) / 1ms) +
                               "}");
            }
            const bool idle = !c->scheduled && c->queue.empty();
            if (_draining && idle && !c->out.empty() &&
                now - c->outSince >= period) {
                c->dead = true; // counts as vanished
                abandonLocked(*c);
            }
            const short events =
                (!c->scheduled && !c->readDone &&
                         c->inflight() < _cfg.maxInflight
                     ? POLLIN
                     : 0) |
                (c->out.empty() ? 0 : POLLOUT);
            if (!idle || !c->readDone || !c->out.empty()) {
                lock.unlock();
                started += start;
                fds.push_back({events ? c->fd.get() : -1, events, 0});
                _connections[kept++] = std::move(c);
                continue;
            }
            // Retire: its last job is done, nothing is joined.
            lock.unlock();
            c->fd.close();
            _pool->unregisterClient(c->client);
            if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
                trace->completeEvent(
                    "conn" + std::to_string(c->id), "daemon", kTracePid,
                    static_cast<int>(c->id) + 1, trace->usAt(c->opened),
                    usSince(c->opened),
                    "{\"jobs\":" + std::to_string(c->jobsDone) + "}");
            }
            --_connectionsActive;
            publishMetrics();
            accepting = true;
        }
        _connections.resize(kept);
        if (beat) {
            publishMetrics();
            obs::writeGlobalMetrics();
        }
        if (_draining && _connections.empty())
            return;

        const auto wait = std::max(next_beat - Clock::now(), Clock::duration{});
        const int timeout =
            period.count() ? static_cast<int>(ceil<milliseconds>(wait).count())
                           : -1;
        for (; started; --started)
            _readyCv.notify_one();
        if (::poll(fds.data(), fds.size(), timeout) < 0 && errno != EINTR)
            throw std::runtime_error(std::string("daemon: poll: ") +
                                     std::strerror(errno));

        for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
            Connection &c = *_connections[i];
            const pollfd &p = fds[i + 2];
            if (p.revents & POLLOUT) {
                const std::lock_guard<std::mutex> lock(c.mutex);
                flushLocked(c);
            }
            if ((p.events & POLLIN) &&
                (p.revents & (POLLIN | POLLHUP | POLLERR))) {
                const std::lock_guard<std::mutex> lock(c.mutex);
                receiveLocked(c); // queued by the next settle pass
            }
        }

        while (fds[1].revents & POLLIN) {
            Fd fd = listener.accept();
            if (!fd.valid()) {
                accepting = errno == EAGAIN || errno == EWOULDBLOCK;
                break;
            }
            _connections.push_back(std::make_shared<Connection>(
                _nextConnId++, std::move(fd), _pool->registerClient(),
                Clock::now()));
            ++_connectionsTotal;
            ++_connectionsActive;
            publishMetrics();
        }

        char wake[64];
        for (ssize_t n;
             fds[0].revents &&
             (n = ::read(_pipeRead.get(), wake, sizeof(wake))) > 0;) {
            if (_draining || !std::memchr(wake, 1, n))
                continue;
            // stop(): no new connections or requests; accepted jobs
            // run to the end.
            _draining = true;
            for (const ConnPtr &c : _connections) {
                c->fd.shutdownRead();
                const std::lock_guard<std::mutex> lock(c->mutex);
                c->readDone = true;
            }
        }
        // Cleared after the drain: a wake-up that finds the flag set
        // changed its state before this point, so the next settle
        // sees it; one that finds it clear writes a byte.
        if (fds[0].revents)
            _wakePending.store(false);
    }
}

void
Daemon::serve()
{
    if (_cfg.socketPath.empty())
        throw std::invalid_argument("daemon: no socket path");

    UnixListener listener(_cfg.socketPath);
    _pool = std::make_unique<core::SweepPool>(_cfg.workers);
    core::setGlobalSweepPool(_pool.get());

    // Every exit, also by exception: cancel what still runs, join the
    // team and uninstall the pool before anyone can use it freed.
    struct Teardown
    {
        Daemon &d;
        ~Teardown()
        {
            {
                const std::lock_guard<std::mutex> lock(d._mutex);
                d._teamStop = true;
            }
            for (const ConnPtr &c : d._connections)
                d._pool->cancelClient(c->client);
            d._readyCv.notify_all();
            for (std::thread &t : d._team)
                t.join();
            core::setGlobalSweepPool(nullptr);
            d._pool.reset();
            d._ready.store(false);
            d.publishMetrics();
            obs::writeGlobalMetrics();
        }
    } teardown{*this};

    // A fixed team, one executor per pool worker: up to that many
    // jobs share the pool at once, whatever the connection count.
    for (unsigned i = 0; i < _pool->workers(); ++i)
        _team.emplace_back([this] { while (runNext()) {} });

    // Publish before ready(): once a caller sees ready(), the global
    // daemon snapshot is this daemon's, not a previous one's.
    publishMetrics();
    obs::writeGlobalMetrics();
    _ready.store(true);
    pollLoop(listener);
}

} // namespace c8t::net

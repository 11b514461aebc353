/**
 * @file
 * c8td — the persistent sweep service (DESIGN.md §13).
 *
 * One daemon process serves sweep / Vdd-sweep / explore jobs to many
 * clients over a Unix domain socket, multiplexing them onto ONE
 * process-wide SweepPool (fair round-robin across clients), ONE
 * StreamCache, ONE fault-map memo and a single-flight whole-result
 * memo. Final frames carry the raw schema-v5 document, byte-identical
 * to `c8tsim --stats-json` for the same spec.
 *
 * Threads: the thread that calls serve() runs one poll() loop that
 * accepts, reads idle connections, flushes and sends heartbeats; a
 * fixed team, one executor per pool worker, runs the jobs and reads
 * the connection it holds between them. Nothing blocks on a client:
 * sockets are used without blocking, and an executor waits at most
 * 200 µs for its connection's next request. A connection holds at
 * most maxInflight requests, and
 * advisory frames are dropped while bytes are queued on it. A failed
 * write means the client vanished: its queue is dropped and its pool
 * slot cancelled. DESIGN.md §13 has the rules, the drain included.
 */

#ifndef C8T_NET_DAEMON_HH
#define C8T_NET_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/memo.hh"
#include "net/frame.hh"
#include "net/socket.hh"

namespace c8t::core
{
class SweepPool;
}

namespace c8t::net
{

/** Daemon tuning. */
struct DaemonConfig
{
    /** Socket path (required). */
    std::string socketPath;

    /** Shared-pool worker threads; 0 = C8T_JOBS / hardware. */
    unsigned workers = 0;

    /** Per-connection bound on requests queued, running or with an
     *  unwritten answer. At the bound nobody reads the connection:
     *  backpressure, not rejection, so response order holds. */
    std::size_t maxInflight = 8;

    /** Liveness heartbeat period for accepted jobs (ms; 0 = off). */
    unsigned heartbeatMs = 1000;
};

/** The sweep service. */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig cfg);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind the socket and serve until stop(). Returns after the
     * graceful drain (all accepted jobs answered, the team joined).
     * Every exit, also by exception, joins the team and uninstalls
     * the shared pool.
     * @throws std::runtime_error when the socket cannot be bound.
     */
    void serve();

    /**
     * Request a graceful shutdown (async-signal-safe: one write(2) to
     * the self-pipe — install it directly as the SIGTERM handler's
     * action). serve() stops accepting, drains accepted jobs and
     * returns.
     */
    void stop();

    /** True once serve() has bound the socket and accepts clients. */
    bool ready() const { return _ready.load(); }

    const DaemonConfig &config() const { return _cfg; }

  private:
    struct Connection;
    using ConnPtr = std::shared_ptr<Connection>;

    // *Locked: the caller holds c.mutex.
    /** Accept, read, flush and heartbeat every connection; return
     *  once drained. */
    void pollLoop(UnixListener &listener);
    /** Executor: take the next ready connection and run (or park)
     *  its jobs while nobody else waits; false once the team stops. */
    bool runNext();
    /** Read what @p c's socket holds into its reader. */
    void receiveLocked(Connection &c);
    /** Queue @p c's decoded requests while under maxInflight. */
    void admitLocked(Connection &c);
    /** A protocol fault: answer it, then abandon @p c's work. */
    void faultLocked(Connection &c, const std::exception &e);
    /** Queue a frame on @p c and write what the socket takes now. */
    void sendLocked(Connection &c, FrameType type,
                    const std::string &payload);
    void flushLocked(Connection &c);
    /** Drop @p c's queued requests and cancel its pool slot. */
    void abandonLocked(Connection &c);
    void wakeLoop();
    void publishMetrics();

    DaemonConfig _cfg;
    std::unique_ptr<core::SweepPool> _pool;
    Fd _pipeRead, _pipeWrite; ///< byte 1 = stop(), byte 0 = wakeLoop()
    std::atomic<bool> _wakePending{false};
    std::atomic<bool> _ready{false};
    bool _draining = false;             ///< loop only
    std::uint64_t _nextConnId = 0;      ///< loop only
    std::vector<ConnPtr> _connections; ///< loop only

    std::mutex _mutex; ///< guards the three members below
    std::condition_variable _readyCv;
    std::deque<ConnPtr> _readyQueue; ///< connections with work, FIFO
    /** Memo key being computed -> the connections parked on it. */
    std::unordered_map<std::string, std::vector<ConnPtr>> _computing;
    bool _teamStop = false;

    // Aggregate counters for the obs::Metrics daemon snapshot.
    std::atomic<std::uint64_t> _connectionsTotal{0};
    std::atomic<std::uint64_t> _connectionsActive{0};
    std::atomic<std::uint64_t> _jobsAccepted{0};
    std::atomic<std::uint64_t> _jobsRunning{0};
    std::atomic<std::uint64_t> _jobsSucceeded{0};
    std::atomic<std::uint64_t> _jobsFailed{0};
    std::atomic<std::uint64_t> _jobsCancelled{0};
    std::atomic<std::uint64_t> _bytesOut{0};
    std::atomic<std::uint64_t> _framesDropped{0};

    /** Canonical spec JSON -> final document, charged key + document
     *  under 256 MiB: daemon_mix and the tests store under 4 MiB, so
     *  it only bounds a long-lived daemon seeing many distinct specs. */
    core::Memo<std::string> _memo{256ull << 20};

    std::vector<std::thread> _team; ///< the executors, declared last
};

} // namespace c8t::net

#endif // C8T_NET_DAEMON_HH

/**
 * @file
 * c8td — the persistent sweep service (DESIGN.md §13).
 *
 * One daemon process serves sweep / Vdd-sweep / explore jobs to many
 * concurrent clients over a Unix domain socket, multiplexing them
 * onto ONE process-wide SweepPool (fair round-robin across clients),
 * ONE StreamCache and ONE fault-map memo — so a warm daemon answers
 * repeat operating points without regenerating a stream or re-running
 * a Monte-Carlo campaign, and identical requests are served verbatim
 * from a whole-result memo (a core::Memo, like the other two):
 * single-flight, so identical requests that arrive together compute
 * once.
 *
 * Per connection the daemon runs a reader thread (frame decode,
 * request queue, disconnect detection) and an executor thread
 * (strict FIFO job execution through app::runJobSpec). Final-result
 * frames carry the raw schema-v5 document bytes — byte-identical to
 * `c8tsim --stats-json` for the same spec, proven by the golden
 * tests. Budgets: the request queue is bounded (maxInflight; the
 * reader applies backpressure by not consuming further frames, so
 * FIFO response order is never violated) and advisory frames
 * (progress/partial) are dropped once a connection's response-byte
 * budget is spent — final/error frames are always delivered.
 *
 * Lifecycle: read-side EOF just ends a connection's request stream
 * (pipelining clients half-close after their last request) — accepted
 * jobs still run and deliver their finals. A client that actually
 * vanished is detected on the write side: the next heartbeat /
 * progress / final frame fails (EPIPE), which drops the client's
 * queue and cancels its slot in the shared pool (unclaimed work is
 * dropped; the in-flight batch completes with JobCancelled and the
 * result is discarded). stop() — the SIGTERM hook — drains: accepted
 * jobs finish and their final frames are delivered before serve()
 * returns.
 */

#ifndef C8T_NET_DAEMON_HH
#define C8T_NET_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/memo.hh"
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

    /** Per-connection request-queue bound (queued + running). The
     *  reader stops consuming frames while at the bound —
     *  backpressure, not rejection, so response order is preserved. */
    std::size_t maxInflight = 8;

    /** Per-connection response-byte budget for *advisory* frames:
     *  once a connection has been sent this many bytes, progress and
     *  partial frames are dropped (counted in the metrics);
     *  final/error frames are always sent. 0 = unlimited. */
    std::uint64_t responseByteBudget = 0;

    /** Liveness heartbeat period for running jobs (ms; 0 = off). */
    unsigned heartbeatMs = 1000;

    /** Serve identical requests from the whole-result memo, and
     *  coalesce concurrent identical requests onto one computation.
     *  false: every request computes. */
    bool memoizeResults = true;
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
     * graceful drain (all accepted jobs answered, workers joined).
     * @throws std::runtime_error when the socket cannot be bound.
     */
    void serve();

    /**
     * Request a graceful shutdown (async-signal-safe: one write(2) to
     * the stop pipe — install it directly as the SIGTERM handler's
     * action). serve() stops accepting, drains accepted jobs and
     * returns.
     */
    void stop();

    /** True once serve() has bound the socket and accepts clients. */
    bool ready() const { return _ready.load(); }

    const DaemonConfig &config() const { return _cfg; }

  private:
    struct Connection;

    void connectionReader(const std::shared_ptr<Connection> &conn);
    void connectionExecutor(const std::shared_ptr<Connection> &conn);
    /** Disconnect handling: a frame write failed, the peer is gone —
     *  drop its queue and cancel its pool slot. */
    void onWireDead(Connection &conn);
    void heartbeatLoop();
    void publishMetrics();
    /** Join and drop finished connections (called between accepts). */
    void reapFinished();

    DaemonConfig _cfg;
    std::unique_ptr<core::SweepPool> _pool;
    Fd _stopRead, _stopWrite; ///< self-pipe: stop() -> accept wakeup
    std::atomic<bool> _ready{false};
    std::atomic<bool> _draining{false};

    std::mutex _connMutex;
    std::vector<std::shared_ptr<Connection>> _connections;
    std::uint64_t _nextConnId = 0;

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

    double _traceT0Us = 0.0; ///< serve() start on the steady clock
};

} // namespace c8t::net

#endif // C8T_NET_DAEMON_HH

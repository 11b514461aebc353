/**
 * @file
 * c8td — the persistent sweep daemon (DESIGN.md §13).
 *
 * Serves sweep / Vdd-sweep / explore jobs over a Unix domain socket,
 * multiplexing concurrent clients onto one shared worker pool, one
 * stream cache and one fault-map memo; identical requests, also
 * concurrent ones, compute once through a single-flight result memo.
 * Final results are byte-identical to `c8tsim --stats-json` for the
 * same spec.
 *
 * Examples:
 *   c8td --socket /tmp/c8t.sock --jobs 8 --metrics-out /tmp/c8t.prom &
 *   c8tctl --socket /tmp/c8t.sock '{"kind":"run","workload":"spec:gcc"}'
 *   kill -TERM %1       # graceful drain: accepted jobs still answered
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "app/options.hh"
#include "core/stream_cache.hh"
#include "net/daemon.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"

namespace
{

using namespace c8t;

net::Daemon *g_daemon = nullptr;

extern "C" void
onSignal(int)
{
    // stop() is one write(2) on the self-pipe: async-signal-safe.
    if (g_daemon)
        g_daemon->stop();
}

const char kUsage[] =
    "usage: c8td --socket PATH [options]\n"
    "\n"
    "  --socket PATH       Unix socket to listen on (required)\n"
    "  --jobs N            shared-pool worker threads (default:\n"
    "                      C8T_JOBS, else hardware concurrency)\n"
    "  --max-inflight N    per-connection bound on requests queued,\n"
    "                      running or with an unwritten answer; the\n"
    "                      daemon stops reading at the bound (default 8)\n"
    "  --heartbeat-ms N    heartbeat period for accepted jobs; 0 = off\n"
    "                      (default 1000)\n"
    "  --stream-cache MB   stream-cache byte budget (0 disables)\n"
    "  --metrics-out FILE  Prometheus exposition file (also C8T_METRICS)\n"
    "  --chrome-trace FILE Chrome trace (also C8T_CHROME_TRACE)\n"
    "  --help              this text\n"
    "\n"
    "One poll loop accepts and watches every connection; jobs run on\n"
    "one executor per pool worker. Progress, partial and heartbeat\n"
    "frames are dropped while a connection has unwritten bytes.\n"
    "\n"
    "SIGTERM/SIGINT drain gracefully: accepted jobs finish and their\n"
    "final frames are delivered before the daemon exits (a client that\n"
    "stops reading them is dropped after one heartbeat period).\n";

int
run(const std::vector<std::string> &args)
{
    net::DaemonConfig cfg;
    std::string metrics_out;
    std::string chrome_trace;
    std::optional<std::size_t> stream_cache_bytes;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                throw std::invalid_argument(a + ": missing value");
            return args[++i];
        };
        if (a == "--help" || a == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (a == "--socket") {
            cfg.socketPath = value();
        } else if (a == "--jobs") {
            cfg.workers = app::parseWorkerCount(a, value(), true);
        } else if (a == "--max-inflight") {
            cfg.maxInflight =
                static_cast<std::size_t>(app::parseU64(a, value()));
            if (!cfg.maxInflight)
                throw std::invalid_argument(
                    "--max-inflight: must be >= 1");
        } else if (a == "--heartbeat-ms") {
            cfg.heartbeatMs = app::parseU32(a, value());
        } else if (a == "--stream-cache") {
            stream_cache_bytes = app::parseStreamCacheMb(a, value());
        } else if (a == "--metrics-out") {
            metrics_out = value();
        } else if (a == "--chrome-trace") {
            chrome_trace = value();
        } else {
            throw std::invalid_argument("unknown option: " + a +
                                        " (see --help)");
        }
    }
    if (cfg.socketPath.empty())
        throw std::invalid_argument("--socket is required (see --help)");

    if (!chrome_trace.empty())
        obs::setGlobalTracePath(chrome_trace);
    if (!metrics_out.empty())
        obs::setGlobalMetricsPath(metrics_out);
    if (stream_cache_bytes)
        core::globalStreamCache().setByteBudget(*stream_cache_bytes);

    net::Daemon daemon(cfg);
    g_daemon = &daemon;
    // A client vanishing mid-write must be an EPIPE errno, not a
    // process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::cerr << "c8td: serving on " << cfg.socketPath << " ("
              << (cfg.workers ? std::to_string(cfg.workers)
                              : std::string("auto"))
              << " workers)\n";
    daemon.serve();
    std::cerr << "c8td: drained, exiting\n";
    g_daemon = nullptr;

    if (obs::ChromeTraceWriter *trace = obs::globalTrace())
        trace->close();
    obs::writeGlobalMetrics();
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "c8td: " << e.what() << "\n";
        obs::writeGlobalMetrics();
        return 1;
    }
}

/**
 * @file
 * Command-line option parsing for the c8tsim command line
 * (tools/c8tsim.cc). Flags parse straight into the shared
 * core::JobSpec; only the result sinks stay on SimOptions.
 * Lives in the library so it is unit testable and reusable by other
 * front ends.
 */

#ifndef C8T_APP_OPTIONS_HH
#define C8T_APP_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/job_spec.hh"

namespace c8t::app
{

/**
 * Parsed c8tsim options: the job to run, plus the options that say
 * where its results go.
 */
struct SimOptions
{
    /** What to run: every workload, cache, scheme, hierarchy, voltage
     *  and explore flag lands here, in the same structure a c8td
     *  request parses to (DESIGN.md §13). --l2 KB appends one level;
     *  the --l2-* knobs shape it and each requires --l2. */
    core::JobSpec job;

    /** Worker threads for multi-scheme runs (--jobs N; 0 = auto:
     *  C8T_JOBS env var, else hardware_concurrency). */
    unsigned jobs = 0;

    /** Stream-cache byte budget (--stream-cache MB; 0 disables
     *  memoization; unset = keep the C8T_STREAM_CACHE_MB / built-in
     *  default). */
    std::optional<std::size_t> streamCacheBytes;

    /** Dump the full statistics registry after the run (--stats). */
    bool dumpStats = false;

    /** Write machine-readable per-scheme stats JSON here
     *  (--stats-json FILE; empty = off). */
    std::string statsJsonFile;

    /** Write a Perfetto-loadable Chrome trace here (--chrome-trace
     *  FILE; empty = C8T_CHROME_TRACE or off). */
    std::string chromeTraceFile;

    /** Per-controller event-ring capacity for per-access slices in
     *  the Chrome trace (--trace-events N; 0 = spans only). */
    std::uint64_t traceEvents = 0;

    /** Write a Prometheus-style metrics exposition here
     *  (--metrics-out FILE; empty = C8T_METRICS or off). Implies the
     *  phase profiler. */
    std::string metricsOutFile;

    /** Append interval counter-delta snapshots (JSON-lines) here
     *  (--interval-stats FILE; empty = off). */
    std::string intervalStatsFile;

    /** Interval snapshot period in accesses (--interval N). */
    std::uint64_t intervalAccesses = 100'000;

    /** Heartbeat sweep progress to stderr (--progress; C8T_PROGRESS
     *  also enables it). */
    bool progress = false;

    /** Emit the result table as CSV (--csv). */
    bool csv = false;

    /** Record the generated stream to this trace file (--record). */
    std::string recordTrace;

    /** --help was given. */
    bool help = false;
};

/**
 * Parse c8tsim arguments (argv[1..]) and, unless --help was given,
 * validate the job (core::JobSpec::validate).
 * @throws std::invalid_argument with a usable message on bad input.
 */
SimOptions parseOptions(const std::vector<std::string> &args);

/** The --help text. */
std::string usageText();

/** Parse an unsigned decimal flag value (c8tsim, c8td): digits only,
 *  see core::parseDecimal. @throws std::invalid_argument naming @p flag. */
std::uint64_t parseU64(const std::string &flag, const std::string &value);

/** parseU64 for a 32-bit field: larger values are rejected naming
 *  @p flag, never wrapped. */
std::uint32_t parseU32(const std::string &flag, const std::string &value);

/** Parse a --stream-cache MB value (c8tsim, c8td) into its byte
 *  budget. @throws std::invalid_argument naming @p flag when the byte
 *  count does not fit a size_t. */
std::size_t parseStreamCacheMb(const std::string &flag,
                               const std::string &value);

/** Parse a --jobs worker count (c8tsim, c8td): at most
 *  core::ParallelSweeper::kMaxWorkers, 0 only when @p zero_is_auto.
 *  @throws std::invalid_argument naming @p flag. */
unsigned parseWorkerCount(const std::string &flag, const std::string &value,
                          bool zero_is_auto);

} // namespace c8t::app

#endif // C8T_APP_OPTIONS_HH

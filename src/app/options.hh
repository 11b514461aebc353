/**
 * @file
 * Command-line option parsing and workload construction for the
 * c8tsim driver (tools/c8tsim.cc). Lives in the library so it is unit
 * testable and reusable by other front ends.
 */

#ifndef C8T_APP_OPTIONS_HH
#define C8T_APP_OPTIONS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job_spec.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "trace/access.hh"

namespace c8t::app
{

/** Parsed c8tsim options. */
struct SimOptions
{
    /**
     * Workload specifier:
     *   spec:<benchmark>   one of the 25 calibrated SPEC profiles
     *   kernel:<name>      stream_copy | stencil3 | pointer_chase |
     *                      hash_update | transpose
     *   trace:<path>       a binary trace file
     */
    std::string workload = "spec:gcc";

    /** Schemes to run (--scheme, repeatable; --all for every scheme). */
    std::vector<core::WriteScheme> schemes = {
        core::WriteScheme::Rmw,
        core::WriteScheme::WriteGroupingReadBypass};

    /** Schemes were chosen explicitly (--scheme/--all given). A
     *  --vdd-sweep with the default selection upgrades to the full
     *  voltage-story scheme set (6T, RMW, WG, WG+RB). */
    bool schemesGiven = false;

    /** Measured accesses (--accesses). */
    std::uint64_t accesses = 1'000'000;

    /** Warm-up accesses (--warmup; default accesses/10). */
    std::uint64_t warmup = 0;

    /** Cache shape (--size KB, --ways, --block, --repl). */
    mem::CacheConfig cache;

    /** Set-Buffer entries (--buffer-entries). */
    std::uint32_t bufferEntries = 1;

    /** Disable silent-store detection (--no-silent-detection). */
    bool silentDetection = true;

    /** Enable a real inclusive write-back L2 of the given KiB
     *  capacity (--l2 KB; 0 = disabled). Historically this flag
     *  enabled a tags-only timing shim; it is kept as an alias for
     *  the hierarchy (DESIGN.md §14). */
    std::uint64_t l2SizeKb = 0;

    /** L2 shape/scheme/supply (--l2-ways, --l2-repl, --l2-scheme,
     *  --l2-vdd; each requires --l2). */
    std::uint32_t l2Ways = 8;
    mem::ReplKind l2Repl = mem::ReplKind::Lru;
    core::WriteScheme l2Scheme = core::WriteScheme::Rmw;
    double l2Vdd = 0.0;

    /** Supply voltage operating point in volts (--vdd V; 0 = nominal,
     *  voltage model detached). */
    double vdd = 0.0;

    /** Sweep the default Vdd grid instead of a single run
     *  (--vdd-sweep). */
    bool vddSweep = false;

    /** Run the design-space explorer (--explore; DESIGN.md §12). The
     *  scheme set comes from --scheme/--all when given, else the
     *  voltage-story four (6T, RMW, WG, WG+RB). */
    bool explore = false;

    /** Explorer workload axis (--explore-workloads name,name|all;
     *  empty = every calibrated SPEC profile). */
    std::vector<std::string> exploreWorkloads;

    /** Explorer cache-size axis in KiB (--explore-sizes). */
    std::vector<std::uint64_t> exploreSizesKb = {16, 32, 64, 128};

    /** Explorer associativity axis (--explore-ways). */
    std::vector<std::uint32_t> exploreWays = {2, 4, 8};

    /** Explorer block-size axis (--explore-blocks). */
    std::vector<std::uint32_t> exploreBlocks = {32, 64};

    /** Explorer replacement axis (--explore-repl). */
    std::vector<mem::ReplKind> exploreRepls = {mem::ReplKind::Lru};

    /** Explorer Vdd axis (--explore-vdd V,V|grid|none; empty =
     *  nominal-only, model detached). */
    std::vector<double> exploreVdd;

    /** Explorer L2-capacity axis in KiB (--explore-l2-sizes; empty =
     *  single-level cells). */
    std::vector<std::uint64_t> exploreL2SizesKb;

    /** Shard checkpoint directory (--checkpoint-dir; empty = no
     *  checkpointing). */
    std::string checkpointDir;

    /** Cells per explorer shard (--shard-cells). */
    std::size_t shardCells = 8;

    /** Stop after executing N shards (--explore-max-shards; 0 =
     *  unlimited) — the interrupt half of interrupt/resume. */
    std::uint64_t exploreMaxShards = 0;

    /** Worker threads for multi-scheme runs (--jobs N; 0 = auto:
     *  C8T_JOBS env var, else hardware_concurrency). */
    unsigned jobs = 0;

    /** Stream-cache budget in MiB (--stream-cache MB; 0 disables
     *  memoization, -1 = keep the C8T_STREAM_CACHE_MB / built-in
     *  default). */
    std::int64_t streamCacheMb = -1;

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

    /** Effective warm-up length. */
    std::uint64_t effectiveWarmup() const
    {
        return warmup ? warmup : accesses / 10;
    }
};

/**
 * Parse c8tsim arguments (argv[1..]).
 * @throws std::invalid_argument with a usable message on bad input.
 */
SimOptions parseOptions(const std::vector<std::string> &args);

/**
 * Reduce parsed options to the shared core::JobSpec (DESIGN.md §13) —
 * the same structure a c8td request parses to, so the CLI and the
 * daemon execute through one path (app::runJobSpec) and cannot drift.
 * Output-sink options (--stats-json, --chrome-trace, ...) stay on
 * SimOptions: they describe where results go, not what to run.
 */
core::JobSpec toJobSpec(const SimOptions &opt);

/** The --help text. */
std::string usageText();

/** Parse a --jobs worker count (c8tsim, c8td): at most
 *  core::ParallelSweeper::kMaxWorkers, 0 only when @p zero_is_auto.
 *  @throws std::invalid_argument naming @p flag. */
unsigned parseWorkerCount(const std::string &flag, const std::string &value,
                          bool zero_is_auto);

/**
 * Construct the workload named by @p spec (see SimOptions::workload).
 * @throws std::invalid_argument on an unknown specifier.
 * @throws std::runtime_error when a trace file cannot be opened.
 */
std::unique_ptr<trace::AccessGenerator>
makeWorkload(const std::string &spec);

/** All valid kernel names accepted by makeWorkload(). */
std::vector<std::string> kernelNames();

} // namespace c8t::app

#endif // C8T_APP_OPTIONS_HH

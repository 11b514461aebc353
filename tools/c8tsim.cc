/**
 * @file
 * c8tsim — the command-line simulator driver.
 *
 * Examples:
 *   c8tsim --workload spec:bwaves --all
 *   c8tsim --workload kernel:hash_update --scheme WG --scheme WG+RB \
 *          --size 32 --block 64 --stats
 *   c8tsim --workload trace:/tmp/app.trc --scheme RMW --csv
 *   c8tsim --workload spec:gcc --all --stats-json stats.json \
 *          --chrome-trace trace.json --trace-events 65536 --progress
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "app/job_runner.hh"
#include "app/options.hh"
#include "core/simulator.hh"
#include "core/stream_cache.hh"
#include "obs/chrome_trace.hh"
#include "obs/event_ring.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "obs/snapshot.hh"
#include "stats/table.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace c8t;

/**
 * Per-scheme observability plumbing, shared between the single-run
 * and sweep paths. Slots are written by at most one worker each;
 * the sweep join provides the happens-before for the main-thread
 * reads below.
 */
struct ObsPlumbing
{
    std::uint64_t ringCapacity = 0;
    /** One ring per (scheme, cache level): rings[i][0] is the L1's,
     *  deeper entries follow the hierarchy (DESIGN.md §14). */
    std::vector<std::vector<std::unique_ptr<obs::EventRing>>> rings;
    std::vector<std::unique_ptr<stats::Registry>> registries;
    std::vector<std::unique_ptr<obs::IntervalSnapshotter>> snapshotters;
    std::vector<std::string> statsText;
    std::unique_ptr<std::ofstream> intervalOs;
    std::mutex intervalMutex;
};

/** Attach rings / interval sampling to a just-constructed runner. */
void
prepareRunner(const app::SimOptions &opt, ObsPlumbing &obs_state,
              std::size_t i, const std::string &scheme,
              core::MultiSchemeRunner &runner)
{
    core::LevelStack &stack = runner.stack(0);
    if (obs_state.ringCapacity) {
        obs_state.rings[i].resize(stack.depth());
        for (std::size_t lvl = 0; lvl < stack.depth(); ++lvl) {
            obs_state.rings[i][lvl] = std::make_unique<obs::EventRing>(
                static_cast<std::size_t>(obs_state.ringCapacity));
            stack.level(lvl).attachEventRing(
                obs_state.rings[i][lvl].get());
        }
    }
    if (obs_state.intervalOs) {
        obs_state.registries[i] = std::make_unique<stats::Registry>();
        // Whole-stack registration: the top level keeps the historical
        // unprefixed names, lower levels sample under "l2."/"l3.".
        stack.registerStats(*obs_state.registries[i]);
        obs_state.snapshotters[i] =
            std::make_unique<obs::IntervalSnapshotter>(
                *obs_state.registries[i], *obs_state.intervalOs, scheme,
                &obs_state.intervalMutex);
        obs::IntervalSnapshotter *snap = obs_state.snapshotters[i].get();
        runner.setIntervalHook(
            opt.intervalAccesses,
            [snap](std::uint64_t access) { snap->sample(access); });
    }
}

/** Collect stats dumps / trace slices after a runner has completed. */
void
inspectRunner(const app::SimOptions &opt, ObsPlumbing &obs_state,
              std::size_t i, const std::string &scheme,
              core::MultiSchemeRunner &runner)
{
    core::LevelStack &stack = runner.stack(0);
    if (opt.dumpStats) {
        // Equivalent to CacheController::dumpStats for a single level;
        // a hierarchy folds the lower levels in under their prefixes.
        stats::Registry reg;
        stack.registerStats(reg);
        std::ostringstream os;
        reg.dump(os);
        obs_state.statsText[i] = os.str();
    }
    if (!obs_state.rings[i].empty()) {
        // pid 2 is the per-access track family (pid 1 holds the sweep
        // worker spans); one tid per scheme, lower cache levels on
        // their own tids ("WG/l2", ...) so the per-level event streams
        // stay separable in the viewer.
        if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
            trace->processName(2, "accesses");
            for (std::size_t lvl = 0; lvl < obs_state.rings[i].size();
                 ++lvl) {
                const std::string track =
                    lvl ? scheme + "/l" + std::to_string(lvl + 1)
                        : scheme;
                obs::appendEventRing(*trace, *obs_state.rings[i][lvl],
                                     track, 2,
                                     static_cast<int>(i) + 1 +
                                         100 * static_cast<int>(lvl));
            }
        }
        for (std::size_t lvl = 0; lvl < obs_state.rings[i].size(); ++lvl)
            stack.level(lvl).attachEventRing(nullptr);
    }
}

/**
 * Flush this thread's phase times into the process rollup and write
 * the Prometheus exposition file (no-op without a metrics path).
 */
void
finishMetrics()
{
    if (obs::prof::enabled())
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    obs::writeGlobalMetrics();
    const std::string path = obs::resolvedMetricsPath();
    if (!path.empty())
        std::cerr << "wrote metrics exposition to " << path << "\n";
}

/**
 * Write the canonical result document (built by app::runJobSpec — the
 * same bytes a c8td final-result frame carries) to --stats-json.
 */
void
writeDocument(const std::string &path, const std::string &document,
              const char *what)
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        throw std::runtime_error("--stats-json: cannot open \"" + path +
                                 "\" for writing");
    }
    os << document;
    if (!os.flush()) {
        throw std::runtime_error("--stats-json: write to \"" + path +
                                 "\" failed");
    }
    std::cerr << "wrote " << what << " to " << path << "\n";
}

/**
 * Resolve the observability sinks and engine knobs shared by all
 * three job kinds. Runs before any simulation so a bad path fails
 * fast, not after a minutes-long sweep.
 */
void
setupSinks(const app::SimOptions &opt)
{
    if (!opt.chromeTraceFile.empty())
        obs::setGlobalTracePath(opt.chromeTraceFile);
    if (!opt.metricsOutFile.empty())
        obs::setGlobalMetricsPath(opt.metricsOutFile);
    if (opt.streamCacheBytes)
        core::globalStreamCache().setByteBudget(*opt.streamCacheBytes);
    if (opt.progress) {
        // The sweep engines (and the explorer) take their heartbeat
        // default from the environment; --progress is its equivalent.
        setenv("C8T_PROGRESS", "1", 1);
    }
}

/** Close out the Chrome trace (if any) with a pointer to the viewer. */
void
finishTrace()
{
    if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
        trace->close();
        std::cerr << "wrote Chrome trace to " << trace->path()
                  << " (load in https://ui.perfetto.dev)\n";
    }
}

/**
 * --vdd-sweep: every scheme over the default Vdd grid. Prints the
 * energy-per-access curve (pJ) with non-operational points marked, the
 * per-scheme min-Vdd summary, and writes the full curve document to
 * --stats-json when given.
 */
int
runVddSweepCli(const app::SimOptions &opt)
{
    setupSinks(opt);

    const core::JobSpec &job = opt.job;
    const app::JobOutcome outcome = app::runJobSpec(job, opt.jobs);
    const core::VddSweepResult &result = *outcome.vdd;

    // In hierarchy mode (--l2) the grid sweeps the L2's supply while
    // the L1 stays pinned; columns are hierarchy-wide energy.
    const std::string subject =
        result.hierarchy
            ? job.cache.toString() + " + " +
                  std::to_string(job.levels[0].sizeKb) + "K L2 (L2 swept)"
            : job.cache.toString();
    stats::Table t("vdd sweep: " + job.workload + " on " + subject +
                   " (energy/access, pJ; * = not operational)");
    std::vector<std::string> header{"vdd"};
    for (const core::VddCurve &c : result.curves)
        header.push_back(c.scheme);
    t.setHeader(header);
    t.setPrecision(3);
    for (std::size_t gi = 0; gi < result.grid.size(); ++gi) {
        std::vector<stats::Cell> row{result.grid[gi]};
        for (const core::VddCurve &c : result.curves) {
            const core::VddPointResult &p = c.points[gi];
            std::ostringstream cell;
            cell.precision(3);
            cell << std::fixed << p.energyPerAccess * 1e12;
            if (!p.operational)
                cell << '*';
            row.emplace_back(cell.str());
        }
        t.addRow(row);
    }
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    std::cout << "\nmin operational "
              << (result.hierarchy ? "L2 " : "")
              << "Vdd (post-ECC word failure rate <= ";
    std::cout << result.failureThreshold << "):";
    for (const core::VddCurve &c : result.curves) {
        std::cout << "  " << c.scheme << " ("
                  << sram::toString(c.cell) << ") ";
        if (c.minVdd > 0.0)
            std::cout << c.minVdd << " V";
        else
            std::cout << "none";
    }
    std::cout << "\n";

    if (!opt.statsJsonFile.empty())
        writeDocument(opt.statsJsonFile, outcome.document,
                      "vdd sweep JSON");
    finishTrace();
    finishMetrics();
    return 0;
}

/**
 * --explore: run the design-space explorer (DESIGN.md §12) and print
 * the per-workload Pareto frontier. An interrupted explore (shard
 * budget exhausted) prints a resume hint instead of a frontier.
 */
int
runExploreCli(const app::SimOptions &opt)
{
    setupSinks(opt);

    app::JobOutcome outcome = app::runJobSpec(opt.job, opt.jobs);
    const core::ExploreResult &result = *outcome.explore;

    {
        const obs::prof::ScopedPhase serialize_scope(
            obs::prof::Phase::Serialize);
        if (!result.completed) {
            std::cerr << "explore interrupted after "
                      << result.shardsExecuted << " of "
                      << result.shardsTotal << " shards ("
                      << result.configRunsExecuted
                      << " config-runs); rerun with the same "
                         "--checkpoint-dir to resume\n";
        } else {
            stats::Table t(
                "explore frontier (" +
                std::to_string(result.summaries.size()) +
                " design points; energy pJ, EDP pJ*ns at min Vdd)");
            t.setHeader({"workload", "config", "repl", "scheme",
                         "cell", "minVdd", "energy", "EDP", "cyc/acc",
                         "miss%"});
            t.setPrecision(3);
            for (const std::string &w : result.workloads) {
                for (const core::DesignPointSummary *p :
                     result.frontier(w)) {
                    std::ostringstream cfg;
                    cfg << (p->sizeBytes >> 10) << "K/" << p->ways
                        << "w/" << p->blockBytes << "B";
                    if (p->l2SizeBytes)
                        cfg << "+L2:" << (p->l2SizeBytes >> 10) << "K";
                    t.addRow({w, cfg.str(), mem::toString(p->repl),
                              p->scheme, sram::toString(p->cell),
                              p->minVdd, p->energyPerAccess * 1e12,
                              p->edpPerAccess * 1e21,
                              p->cyclesPerAccess, p->missRate * 100.0});
                }
            }
            if (opt.csv)
                t.printCsv(std::cout);
            else
                t.print(std::cout);
        }
        std::cerr << "explore: " << result.configRunsExecuted << "/"
                  << result.configRunsTotal << " config-runs in "
                  << result.wallSeconds << " s ("
                  << result.configRunsPerSec
                  << " config-runs/s, stream-cache hit rate "
                  << 100.0 * result.streamCacheHitRate << "%"
                  << (result.shardsResumed
                          ? ", " + std::to_string(result.shardsResumed) +
                                " shards resumed"
                          : std::string())
                  << ")\n";

        if (!opt.statsJsonFile.empty())
            writeDocument(opt.statsJsonFile, outcome.document,
                          "explore JSON");
    }
    finishTrace();
    finishMetrics();
    return 0;
}

int
run(const app::SimOptions &opt)
{
    const core::JobSpec &job = opt.job;
    if (job.kind == core::JobKind::Explore)
        return runExploreCli(opt);
    if (job.kind == core::JobKind::VddSweep)
        return runVddSweepCli(opt);
    setupSinks(opt);

    // Optionally record the exact stream being simulated.
    if (!opt.recordTrace.empty()) {
        auto workload = app::makeWorkload(job.workload);
        trace::TraceWriter writer(opt.recordTrace);
        trace::MemAccess a;
        const std::uint64_t total = job.effectiveWarmup() + job.accesses;
        for (std::uint64_t i = 0; i < total && workload->next(a); ++i)
            writer.write(a);
        writer.finish();
        std::cerr << "recorded " << writer.count() << " accesses to "
                  << opt.recordTrace << "\n";
    }

    ObsPlumbing obs_state;
    obs_state.ringCapacity = opt.traceEvents;
    const std::size_t n_schemes = job.effectiveSchemes().size();
    obs_state.rings.resize(n_schemes);
    obs_state.registries.resize(n_schemes);
    obs_state.snapshotters.resize(n_schemes);
    obs_state.statsText.resize(n_schemes);
    if (!opt.intervalStatsFile.empty()) {
        obs_state.intervalOs = std::make_unique<std::ofstream>(
            opt.intervalStatsFile, std::ios::app);
        if (!*obs_state.intervalOs) {
            throw std::runtime_error("--interval-stats: cannot open \"" +
                                     opt.intervalStatsFile +
                                     "\" for append");
        }
    }

    // Execution goes through the shared job path (DESIGN.md §13): one
    // sweep job per scheme, each replaying the workload from its own
    // (stream-cache-memoized) generation, so results are identical to
    // the historical serial path — and byte-identical to what the c8td
    // daemon produces for the same spec. The CLI-only event-ring /
    // interval-snapshot plumbing rides along on the hooks.
    app::JobHooks hooks;
    hooks.prepare = [&opt, &obs_state](std::size_t i,
                                       const std::string &scheme,
                                       core::MultiSchemeRunner &r) {
        prepareRunner(opt, obs_state, i, scheme, r);
    };
    hooks.inspect = [&opt, &obs_state](std::size_t i,
                                       const std::string &scheme,
                                       core::MultiSchemeRunner &r) {
        inspectRunner(opt, obs_state, i, scheme, r);
    };
    const app::JobOutcome outcome =
        app::runJobSpec(job, opt.jobs, hooks, obs::prof::enabled());
    const std::vector<core::SchemeRunResult> &results = outcome.runs;

    stats::Table t("c8tsim: " + job.workload + " on " +
                   job.cache.toString());
    t.setHeader({"scheme", "requests", "hits", "demand ops",
                 "fill ops", "grouped", "bypassed", "silent",
                 "read lat", "energy (uJ)"});
    t.setPrecision(2);
    for (const auto &r : results) {
        t.addRow({r.scheme, static_cast<std::int64_t>(r.requests),
                  static_cast<std::int64_t>(r.hits),
                  static_cast<std::int64_t>(r.demandAccesses),
                  static_cast<std::int64_t>(r.fillAccesses),
                  static_cast<std::int64_t>(r.groupedWrites),
                  static_cast<std::int64_t>(r.bypassedReads),
                  static_cast<std::int64_t>(r.silentWritesDetected),
                  r.meanReadLatency, r.dynamicEnergy * 1e6});
    }

    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    // Relative view when a baseline RMW run is present.
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].scheme != "RMW")
            continue;
        std::cout << "\nreduction vs RMW:";
        for (const auto &r : results) {
            if (r.scheme == "RMW")
                continue;
            std::cout << "  " << r.scheme << " "
                      << 100.0 * (1.0 -
                                  static_cast<double>(r.demandAccesses) /
                                      results[i].demandAccesses)
                      << "%";
        }
        std::cout << "\n";
        break;
    }

    if (opt.dumpStats) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::cout << "\n---- stats: " << results[i].scheme
                      << " ----\n"
                      << obs_state.statsText[i];
        }
    }

    if (!opt.statsJsonFile.empty())
        writeDocument(opt.statsJsonFile, outcome.document,
                      "stats JSON");
    finishTrace();
    finishMetrics();
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        const app::SimOptions opt = app::parseOptions(args);
        if (opt.help) {
            std::cout << app::usageText();
            return 0;
        }
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "c8tsim: " << e.what() << "\n";
        // A throw mid-sweep must still leave a complete exposition
        // file behind (the write itself is atomic: tmp + rename), not
        // a truncated or missing one — scrapers read it after failed
        // runs too.
        obs::writeGlobalMetrics();
        return 1;
    }
}

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

#include <algorithm>
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
#include "trace/workload.hh"

namespace
{

using namespace c8t;

/**
 * A run's per-scheme observability plumbing (event rings, interval
 * snapshots, --stats dumps), attached through the job hooks. Slots are
 * written by at most one worker each; the sweep join provides the
 * happens-before for the main-thread reads.
 */
class ObsPlumbing
{
  public:
    explicit ObsPlumbing(const app::SimOptions &opt)
        : statsText(opt.job.effectiveSchemes().size()), _opt(opt),
          _rings(statsText.size()), _registries(statsText.size()),
          _snapshotters(statsText.size())
    {
        if (opt.job.kind != core::JobKind::Run ||
            opt.intervalStatsFile.empty())
            return;
        _intervalOs = std::make_unique<std::ofstream>(
            opt.intervalStatsFile, std::ios::app);
        if (!*_intervalOs) {
            throw std::runtime_error("--interval-stats: cannot open \"" +
                                     opt.intervalStatsFile +
                                     "\" for append");
        }
    }

    /** Attach rings / interval sampling to a just-constructed runner. */
    void prepare(std::size_t i, const std::string &scheme,
                 core::MultiSchemeRunner &runner)
    {
        core::LevelStack &stack = runner.stack(0);
        if (_opt.traceEvents) {
            _rings[i].resize(stack.depth());
            for (std::size_t lvl = 0; lvl < stack.depth(); ++lvl) {
                _rings[i][lvl] = std::make_unique<obs::EventRing>(
                    static_cast<std::size_t>(_opt.traceEvents));
                stack.level(lvl).attachEventRing(_rings[i][lvl].get());
            }
        }
        if (_intervalOs) {
            _registries[i] = std::make_unique<stats::Registry>();
            // Whole-stack registration: the top level keeps the
            // historical unprefixed names, lower levels sample under
            // "l2."/"l3.".
            stack.registerStats(*_registries[i]);
            _snapshotters[i] = std::make_unique<obs::IntervalSnapshotter>(
                *_registries[i], *_intervalOs, scheme, &_intervalMutex);
            obs::IntervalSnapshotter *snap = _snapshotters[i].get();
            runner.setIntervalHook(
                _opt.intervalAccesses,
                [snap](std::uint64_t access) { snap->sample(access); });
        }
    }

    /** Collect stats dumps / trace slices after a runner has completed. */
    void inspect(std::size_t i, const std::string &scheme,
                 core::MultiSchemeRunner &runner)
    {
        core::LevelStack &stack = runner.stack(0);
        if (_opt.dumpStats) {
            // Equivalent to CacheController::dumpStats for a single
            // level; a hierarchy folds the lower levels in under their
            // prefixes.
            stats::Registry reg;
            stack.registerStats(reg);
            std::ostringstream os;
            reg.dump(os);
            statsText[i] = os.str();
        }
        if (_rings[i].empty())
            return;
        // pid 2 is the per-access track family (pid 1 holds the sweep
        // worker spans); one tid per scheme, lower cache levels on
        // their own tids ("WG/l2", ...) so the per-level event streams
        // stay separable in the viewer.
        if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
            trace->processName(2, "accesses");
            for (std::size_t lvl = 0; lvl < _rings[i].size(); ++lvl) {
                const std::string track =
                    lvl ? scheme + "/l" + std::to_string(lvl + 1) : scheme;
                obs::appendEventRing(*trace, *_rings[i][lvl], track, 2,
                                     static_cast<int>(i) + 1 +
                                         100 * static_cast<int>(lvl));
            }
        }
        for (std::size_t lvl = 0; lvl < _rings[i].size(); ++lvl)
            stack.level(lvl).attachEventRing(nullptr);
    }

    /** --stats registry dumps, one per scheme. */
    std::vector<std::string> statsText;

  private:
    const app::SimOptions &_opt;
    /** One ring per (scheme, cache level): rings[i][0] is the L1's,
     *  deeper entries follow the hierarchy (DESIGN.md §14). */
    std::vector<std::vector<std::unique_ptr<obs::EventRing>>> _rings;
    std::vector<std::unique_ptr<stats::Registry>> _registries;
    std::vector<std::unique_ptr<obs::IntervalSnapshotter>> _snapshotters;
    std::unique_ptr<std::ofstream> _intervalOs;
    std::mutex _intervalMutex;
};

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

/**
 * Close out the Chrome trace (if any) with a pointer to the viewer,
 * fold this thread's phase times into the process rollup and write
 * the Prometheus exposition file (no-op without a metrics path).
 */
void
finish()
{
    if (obs::ChromeTraceWriter *trace = obs::globalTrace()) {
        trace->close();
        std::cerr << "wrote Chrome trace to " << trace->path()
                  << " (load in https://ui.perfetto.dev)\n";
    }
    if (obs::prof::enabled())
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
    obs::writeGlobalMetrics();
    const std::string path = obs::resolvedMetricsPath();
    if (!path.empty())
        std::cerr << "wrote metrics exposition to " << path << "\n";
}

/** Print @p t to stdout, as CSV with --csv. */
void
printTable(const app::SimOptions &opt, const stats::Table &t)
{
    if (opt.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
}

/**
 * A run: the per-scheme table, the reduction against RMW when it ran
 * and, with --stats, every scheme's registry dump.
 */
void
printRun(const app::SimOptions &opt, const app::JobOutcome &outcome,
         const std::vector<std::string> &stats_text)
{
    const core::JobSpec &job = opt.job;
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
    printTable(opt, t);

    // Relative view when a baseline RMW run is present.
    const auto rmw =
        std::find_if(results.begin(), results.end(),
                     [](const auto &r) { return r.scheme == "RMW"; });
    if (rmw != results.end()) {
        std::cout << "\nreduction vs RMW:";
        for (const auto &r : results) {
            if (r.scheme != "RMW") {
                std::cout << "  " << r.scheme << " "
                          << 100.0 * (1.0 - static_cast<double>(
                                                r.demandAccesses) /
                                                rmw->demandAccesses)
                          << "%";
            }
        }
        std::cout << "\n";
    }

    if (opt.dumpStats) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::cout << "\n---- stats: " << results[i].scheme
                      << " ----\n"
                      << stats_text[i];
        }
    }
}

/**
 * --vdd-sweep: the energy-per-access curve (pJ) with non-operational
 * points marked, then the per-scheme min-Vdd summary.
 */
void
printVddSweep(const app::SimOptions &opt, const app::JobOutcome &outcome)
{
    const core::JobSpec &job = opt.job;
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
    printTable(opt, t);

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
}

/**
 * --explore (DESIGN.md §12): the per-workload Pareto frontier, or a
 * resume hint when the shard budget interrupted the explore.
 */
void
printExplore(const app::SimOptions &opt, const app::JobOutcome &outcome)
{
    const core::ExploreResult &result = *outcome.explore;
    if (!result.completed) {
        std::cerr << "explore interrupted after " << result.shardsExecuted
                  << " of " << result.shardsTotal << " shards ("
                  << result.configRunsExecuted
                  << " config-runs); rerun with the same "
                     "--checkpoint-dir to resume\n";
    } else {
        stats::Table t("explore frontier (" +
                       std::to_string(result.summaries.size()) +
                       " design points; energy pJ, EDP pJ*ns at min Vdd)");
        t.setHeader({"workload", "config", "repl", "scheme", "cell",
                     "minVdd", "energy", "EDP", "cyc/acc", "miss%"});
        t.setPrecision(3);
        for (const std::string &w : result.workloads) {
            for (const core::DesignPointSummary *p : result.frontier(w)) {
                std::ostringstream cfg;
                cfg << (p->sizeBytes >> 10) << "K/" << p->ways << "w/"
                    << p->blockBytes << "B";
                if (p->l2SizeBytes)
                    cfg << "+L2:" << (p->l2SizeBytes >> 10) << "K";
                t.addRow({w, cfg.str(), mem::toString(p->repl), p->scheme,
                          sram::toString(p->cell), p->minVdd,
                          p->energyPerAccess * 1e12,
                          p->edpPerAccess * 1e21, p->cyclesPerAccess,
                          p->missRate * 100.0});
            }
        }
        printTable(opt, t);
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
}

/** Write the first --record'ed accesses of the run's workload stream. */
void
recordStream(const core::JobSpec &job, const std::string &path)
{
    auto workload = trace::makeWorkload(job.workload)();
    trace::TraceWriter writer(path);
    trace::MemAccess a;
    const std::uint64_t total = job.effectiveWarmup() + job.accesses;
    for (std::uint64_t i = 0; i < total && workload->next(a); ++i)
        writer.write(a);
    writer.finish();
    std::cerr << "recorded " << writer.count() << " accesses to " << path
              << "\n";
}

/**
 * The one driver for every job kind: sinks, the shared job path
 * (DESIGN.md §13), that kind's table, the --stats-json document and
 * the trace/metrics close-out.
 */
int
run(const app::SimOptions &opt)
{
    const core::JobSpec &job = opt.job;
    setupSinks(opt);
    if (job.kind == core::JobKind::Run && !opt.recordTrace.empty())
        recordStream(job, opt.recordTrace);

    // The document is byte-identical to what c8td answers for the
    // spec; a run's CLI-only plumbing rides along on the job hooks.
    ObsPlumbing plumbing(opt);
    app::JobHooks hooks;
    hooks.prepare = [&plumbing](std::size_t i, const std::string &scheme,
                                core::MultiSchemeRunner &r) {
        plumbing.prepare(i, scheme, r);
    };
    hooks.inspect = [&plumbing](std::size_t i, const std::string &scheme,
                                core::MultiSchemeRunner &r) {
        plumbing.inspect(i, scheme, r);
    };
    const app::JobOutcome outcome =
        app::runJobSpec(job, opt.jobs, hooks, obs::prof::enabled());

    const char *what = "stats JSON";
    switch (job.kind) {
    case core::JobKind::Run:
        printRun(opt, outcome, plumbing.statsText);
        break;
    case core::JobKind::VddSweep:
        printVddSweep(opt, outcome);
        what = "vdd sweep JSON";
        break;
    case core::JobKind::Explore:
        printExplore(opt, outcome);
        what = "explore JSON";
        break;
    }
    if (!opt.statsJsonFile.empty())
        writeDocument(opt.statsJsonFile, outcome.document, what);
    finish();
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

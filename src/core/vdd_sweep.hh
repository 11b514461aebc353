/**
 * @file
 * The voltage sweep driver (DESIGN.md §10) and the operating-point
 * reducer it shares with the design-space explorer (§12).
 *
 * An operating-point sweep evaluates every write scheme at every
 * supply of a grid. appendOperatingPointJobs() turns a VddSweepSpec
 * into one SweepJob per (timing class, plan group): a plan group is a
 * set of schemes that core::sharesPlan — all of them for a
 * single-level spec, one each in hierarchy mode, since the schemes'
 * L2s differ — and a timing class is a set of grid points whose
 * supplies resolve to the same latency cycles for every scheme
 * (core::sharesReplay). A job replays its class once and prices each
 * of its points at that point's own energy rates. Every job replays
 * the byte-identical workload stream (shared via the job streamKey)
 * with the voltage model attached.
 * reduceOperatingPoints() then combines three ingredients into a
 * per-scheme VddCurve:
 *
 *  * the simulated run (dynamic energy, cycles) at that voltage,
 *  * the analytic operating point (leakage scale, delay factor),
 *  * a Monte-Carlo SEC-DED fault-map campaign for the scheme's cell
 *    type (sram::runFaultMapCampaign), whose post-ECC word failure
 *    rate decides whether the point is *operational*.
 *
 * The curve's min-Vdd is the lowest grid voltage reachable from
 * nominal through operational points only — the paper's claim is that
 * this is strictly lower for 8T schemes than for the 6T baseline,
 * while WG/WG+RB recoup the 8T RMW energy tax along the way.
 * runVddSweep returns those curves for one spec; the explorer builds
 * one spec per cell and summarises each curve at its min-Vdd point.
 *
 * Fault maps depend only on (run seed, Vdd, geometry, cell type), so
 * each job evaluates the campaigns of its own (grid point, scheme)
 * runs on its worker, right after its replay, through the
 * process-global FaultMapCache: once per (cell, degree, Vdd), shared
 * across schemes, jobs and cells.
 * Results are bit-identical for any sweep worker count.
 */

#ifndef C8T_CORE_VDD_SWEEP_HH
#define C8T_CORE_VDD_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "core/write_scheme.hh"
#include "mem/cache.hh"
#include "sram/fault_injection.hh"
#include "sram/vmodel.hh"
#include "stats/registry.hh"
#include "trace/access.hh"

namespace c8t::core
{

/** Configuration of one voltage sweep. */
struct VddSweepSpec
{
    /** Operating points, strictly descending (validated). Default:
     *  sram::VddModel::defaultGrid(), 1.00 V down to 0.50 V. */
    std::vector<double> grid = sram::VddModel::defaultGrid();

    /** Voltage model constants. */
    sram::VddModelParams model;

    /** Post-ECC word failure rate above which an operating point stops
     *  being operational. 1e-3 over the 16 K-word fault array keeps
     *  the Monte-Carlo verdict far from shot noise. */
    double failureThreshold = 1e-3;

    /** Seed for the fault-map draws. */
    std::uint64_t runSeed = 1;

    /** Rows of the Monte-Carlo fault array (words per row and the
     *  interleave degree follow the cache geometry / controller
     *  default). */
    std::uint32_t faultRows = 1024;

    /** Cache shape shared by every scheme. */
    mem::CacheConfig cache;

    /** Schemes to sweep: the paper's voltage story compares the 6T
     *  direct-write baseline against the 8T variants. */
    std::vector<WriteScheme> schemes = voltageStorySchemes();

    /**
     * Lower cache levels, nearest first (empty = the classic
     * single-level sweep). A non-empty list switches the sweep into
     * hierarchy mode (DESIGN.md §14): the top level is pinned to
     * topScheme at topVdd while the scheme axis *and the grid
     * voltage* apply to the first lower level — the paper's 6T-L1 /
     * near-threshold-8T-L2 split. Fault maps and the operational
     * verdict follow the L2 geometry and the swept scheme's cell;
     * energy and EDP are hierarchy-wide.
     */
    std::vector<LevelConfig> lowerLevels;

    /** Top-level scheme in hierarchy mode (the L1 stays a 6T
     *  direct-write cache by default). */
    WriteScheme topScheme = WriteScheme::SixTDirect;

    /** Top-level supply in hierarchy mode (V; 0 = nominal,
     *  model detached for the L1). */
    double topVdd = 0.0;

    /** Workload factory (same contract as SweepJob::makeGenerator). */
    std::function<std::unique_ptr<trace::AccessGenerator>()> makeGenerator;

    /** Stream memoization key (same contract as SweepJob::streamKey);
     *  strongly recommended — every job replays the identical
     *  stream, so without a key the stream is regenerated per job. */
    std::string streamKey;
};

/** One scheme evaluated at one operating point. */
struct VddPointResult
{
    /** Supply voltage (V). */
    double vdd = 0.0;

    /** Analytic operating point (scales, delay, cell failure rates)
     *  for this scheme's cell type. */
    sram::VddPoint point;

    /** Monte-Carlo SEC-DED outcome at this point. */
    sram::FaultMapStats faults;

    /** faults.postEccFailureRate() <= the spec threshold. */
    bool operational = false;

    /** Dynamic energy per demand request (J). */
    double dynamicEnergyPerAccess = 0.0;

    /** Leakage energy per demand request (J): scaled array leakage
     *  power integrated over the run's cycle time. */
    double leakageEnergyPerAccess = 0.0;

    /** Total energy per access (dynamic + leakage, J). */
    double energyPerAccess = 0.0;

    /** Elapsed cycles per demand request. */
    double cyclesPerAccess = 0.0;

    /** Energy-delay product per access (J*s). */
    double edpPerAccess = 0.0;

    /** The raw run snapshot. */
    SchemeRunResult run;
};

/** Per-scheme curve over the whole grid. */
struct VddCurve
{
    /** Scheme name (toString(WriteScheme)). */
    std::string scheme;

    /** Cell the scheme runs on (6T for the direct baseline only). */
    sram::CellType cell = sram::CellType::EightT;

    /**
     * Lowest grid voltage reachable from nominal through operational
     * points only (V); 0 when even the highest grid point fails.
     */
    double minVdd = 0.0;

    /** One entry per grid point, descending Vdd. */
    std::vector<VddPointResult> points;
};

/** Result of a voltage sweep. */
class VddSweepResult
{
  public:
    /** Workload name (from the generator). */
    std::string workload;

    /** The failure threshold the verdicts used. */
    double failureThreshold = 0.0;

    /** The grid swept, descending. */
    std::vector<double> grid;

    /** True for a hierarchy sweep (spec.lowerLevels non-empty): the
     *  energy/EDP columns are hierarchy-wide and min-Vdd is the L2's. */
    bool hierarchy = false;

    /** One curve per spec scheme, in spec order. */
    std::vector<VddCurve> curves;

    /** Curve for @p scheme; nullptr when it was not swept. */
    const VddCurve *curve(WriteScheme scheme) const;

    /**
     * Register summary statistics (per-scheme min-Vdd and the energy
     * per access at min-Vdd) as gauges named
     * "vdd_sweep.<scheme>.min_vdd" / ".energy_per_access_at_min".
     * The gauges are owned by this result and live as long as it does.
     */
    void registerStats(stats::Registry &reg);

    /**
     * Dump the full result as one JSON object (curves with every
     * per-point quantity). Key order is fixed, so output is
     * deterministic; schema documented in DESIGN.md §10.
     */
    void dumpJson(std::ostream &os) const;

  private:
    /** Backing storage for registerStats() gauges. */
    std::vector<std::unique_ptr<stats::Gauge>> _gauges;
};

/** Fault-map campaign outcomes of one sweep, [grid point][scheme]. */
using VddFaultTable = std::vector<std::vector<sram::FaultMapStats>>;

/**
 * Append @p spec's jobs to @p jobs and return how many were appended:
 * one SweepJob per (timing class, plan group), classes in order of
 * their first grid point. Two configurations of one job either
 * core::sharesPlan (schemes of one group at one point) or
 * core::sharesReplay (one scheme at two points of a class). A
 * single-level spec puts the scheme and the grid voltage on its
 * cache, so all schemes share a job; in hierarchy mode the top level
 * is pinned to (topScheme, topVdd) and both ride on the first lower
 * level, so every scheme gets jobs of its own. A job's configs list
 * its class's points in grid order, each with its group's schemes;
 * SweepJob::vdd annotates the class's first supply. Each job's inspect
 * hook evaluates the fault-map campaigns of its (grid point, scheme)
 * runs on its worker into their cells of @p faults, which is sized
 * here and must outlive the run. The default grid's 11 supplies fall
 * into 7 timing classes.
 *
 * An empty grid selects nominal-only mode: the jobs of one point at
 * the nominal supply, with the voltage model detached and no
 * campaigns. The spec is not validated here (runVddSweep rejects an
 * empty grid).
 */
std::size_t appendOperatingPointJobs(const VddSweepSpec &spec,
                                     VddFaultTable &faults,
                                     std::vector<SweepJob> &jobs);

/**
 * Reduce the runs of @p spec's jobs (one result vector per job, in
 * appendOperatingPointJobs order; each (grid point, scheme) run is
 * found through the same layout the jobs were built from) and their
 * campaign outcomes to one
 * curve per scheme: per-point energy, cycles and EDP per access, the
 * operational verdict and the min-Vdd reachability walk. In nominal-
 * only mode the single nominal point is operational by definition.
 */
std::vector<VddCurve>
reduceOperatingPoints(const VddSweepSpec &spec, const VddFaultTable &faults,
                      std::span<const std::vector<SchemeRunResult>> runs);

/** The point of @p curve at its min-Vdd; nullptr when no point is
 *  operational. */
const VddPointResult *minVddPoint(const VddCurve &curve);

/**
 * Run the sweep: the parallel SweepJobs of appendOperatingPointJobs
 * (label "vdd_sweep" for the heartbeat and trace spans, "vdd_sweep+l2"
 * in hierarchy mode), reduced by reduceOperatingPoints. The workload
 * factory is called only inside the jobs; the result's workload name
 * is the first run's.
 *
 * @param spec    Sweep configuration (validated; throws
 *                std::invalid_argument on an empty/ascending grid, no
 *                schemes or a missing workload factory).
 * @param rc      Warm-up/measure window per (scheme, point) run.
 * @param workers Sweep worker threads; 0 = C8T_JOBS / hardware.
 */
VddSweepResult runVddSweep(const VddSweepSpec &spec, const RunConfig &rc,
                           unsigned workers = 0);

} // namespace c8t::core

#endif // C8T_CORE_VDD_SWEEP_HH

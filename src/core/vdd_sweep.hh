/**
 * @file
 * The voltage sweep driver (DESIGN.md §10): every write scheme
 * evaluated at every supply operating point of a grid.
 *
 * For each grid voltage the driver runs one SweepJob through the
 * parallel sweep engine — one controller per scheme, all replaying the
 * byte-identical workload stream (shared via the job streamKey) with
 * the voltage model attached — and combines three ingredients into a
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
 *
 * Fault maps depend only on (run seed, Vdd, geometry, cell type), so
 * each grid point's job evaluates its campaigns on its own worker,
 * right after its replay, through the process-global FaultMapCache:
 * once per (cell, degree, Vdd), shared across schemes. Results are
 * bit-identical for any sweep worker count.
 */

#ifndef C8T_CORE_VDD_SWEEP_HH
#define C8T_CORE_VDD_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
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
    std::vector<WriteScheme> schemes = {
        WriteScheme::SixTDirect,
        WriteScheme::Rmw,
        WriteScheme::WriteGrouping,
        WriteScheme::WriteGroupingReadBypass,
    };

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
     *  strongly recommended — every grid point replays the identical
     *  stream, so without a key the stream is regenerated per point. */
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
    VddSweepResult();
    VddSweepResult(VddSweepResult &&) noexcept;
    VddSweepResult &operator=(VddSweepResult &&) noexcept;
    /** Emits the pending bench record (see emitBenchRecord). */
    ~VddSweepResult();

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

    /**
     * Append the kind:"vdd" perf record to C8T_BENCH_JSON (no-op when
     * unset) and refresh the metrics exposition. Emission is deferred
     * until here — rather than inside runVddSweep — so the record's
     * phase block captures the *caller's* serialization of this result
     * (dumpJson, table printing under a Serialize scope) instead of
     * always reporting serialize:0. Idempotent; the destructor calls
     * it, so a driver that never asks still produces the record.
     * Phase attribution diffs the process rollup across the sweep, so
     * keep one recording result live at a time.
     */
    void emitBenchRecord();

  private:
    friend VddSweepResult runVddSweep(const VddSweepSpec &,
                                      const RunConfig &, unsigned);

    /** Deferred bench-record state (set by runVddSweep). */
    struct Pending;
    std::unique_ptr<Pending> _pending;

    /** Backing storage for registerStats() gauges. */
    std::vector<std::unique_ptr<stats::Gauge>> _gauges;
};

/**
 * Run the sweep: one parallel SweepJob per grid point (label
 * "vdd_sweep:<workload>" for the bench/trace plumbing, with a "+l2"
 * suffix in hierarchy mode so the records never pair with a
 * single-level sweep's in bench_diff). Each job evaluates its grid
 * point's fault maps per (cell, degree) on its worker after the
 * replay (SweepJob::inspect); the calling thread then assembles the
 * curves per scheme.
 *
 * Arms one kind:"vdd" JSON record (per-scheme min-Vdd plus the
 * sweep's simulation throughput) for C8T_BENCH_JSON when set; the
 * record is written by VddSweepResult::emitBenchRecord() (at the
 * latest, its destructor) so caller-side serialization of the result
 * is attributed in the record's phase block.
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

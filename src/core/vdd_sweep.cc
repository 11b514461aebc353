/**
 * @file
 * Voltage sweep driver implementation.
 */

#include "core/vdd_sweep.hh"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "obs/prof.hh"
#include "sram/energy.hh"
#include "stats/json.hh"
#include "stats/registry.hh"

namespace c8t::core
{

namespace
{

void
validate(const VddSweepSpec &spec)
{
    if (spec.grid.empty())
        throw std::invalid_argument("VddSweepSpec: empty grid");
    validateOperatingPoints(spec.grid, spec.faultRows, spec.model,
                            "VddSweepSpec");
    if (spec.schemes.empty())
        throw std::invalid_argument("VddSweepSpec: no schemes");
    if (!spec.makeGenerator)
        throw std::invalid_argument("VddSweepSpec: no workload factory");
    validateLevels(spec.cache, spec.lowerLevels);
}

/** The cache shape whose array the swept scheme runs on: the L1 for a
 *  single-level sweep, the L2 in hierarchy mode (the scheme axis and
 *  the grid voltage apply to the L2 there). */
const mem::CacheConfig &
sweptShape(const VddSweepSpec &spec)
{
    return spec.lowerLevels.empty() ? spec.cache
                                    : spec.lowerLevels.front().cache;
}

/** The data array @p scheme runs on in @p spec's swept level. */
sram::ArrayGeometry
sweptGeometry(const VddSweepSpec &spec, WriteScheme scheme)
{
    return dataArrayGeometry(
        sweptShape(spec), scheme,
        spec.lowerLevels.empty() ? ControllerConfig{}.interleaveDegree
                                 : spec.lowerLevels.front().interleaveDegree);
}

/** The supplies @p spec's jobs run at: its grid, or the nominal supply
 *  alone for an empty (nominal-only) grid. */
std::vector<double>
operatingGrid(const VddSweepSpec &spec)
{
    return spec.grid.empty() ? std::vector<double>{spec.model.nominalVdd}
                             : spec.grid;
}

/** The supply grid point @p gi's configurations run at: nominal-only
 *  runs keep the voltage model detached. */
double
pointVdd(const VddSweepSpec &spec, std::size_t gi)
{
    return spec.grid.empty() ? 0.0 : spec.grid[gi];
}

/** The configuration that runs @p scheme at supply @p vdd: a
 *  single-level spec puts both on its cache; in hierarchy mode the L1
 *  is pinned while the scheme axis and the grid voltage ride on the
 *  L2. */
ControllerConfig
pointConfig(const VddSweepSpec &spec, WriteScheme scheme, double vdd)
{
    ControllerConfig cfg;
    cfg.cache = spec.cache;
    cfg.vmodel = spec.model;
    if (spec.lowerLevels.empty()) {
        cfg.scheme = scheme;
        cfg.vdd = vdd;
    } else {
        cfg.scheme = spec.topScheme;
        cfg.vdd = spec.topVdd;
        cfg.lowerLevels = spec.lowerLevels;
        cfg.lowerLevels.front().scheme = scheme;
        cfg.lowerLevels.front().vdd = vdd;
    }
    return cfg;
}

/** One job of a sweep: its (grid point, scheme) runs, in result
 *  order. */
using JobRuns = std::vector<std::pair<std::size_t, std::size_t>>;

/**
 * The job layout of @p spec (DESIGN.md §5): one job per (timing class,
 * plan group). A plan group is a set of schemes whose configurations
 * core::sharesPlan — every scheme for a single-level spec, one scheme
 * each in hierarchy mode (the schemes' L2s differ); every config of a
 * grid point shares its supply, so the grouping is the same at each
 * point. A timing class is a set of grid points whose configurations
 * core::sharesReplay for every scheme. A job lists its class's points
 * in grid order, each with its group's schemes in spec order; the
 * runner replays the first point's configs and prices the rest.
 */
std::vector<JobRuns>
jobLayout(const VddSweepSpec &spec)
{
    const auto groups =
        classesOf(spec.schemes.size(), [&](std::size_t a, std::size_t b) {
            return sharesPlan(pointConfig(spec, spec.schemes[a], 0.0),
                              pointConfig(spec, spec.schemes[b], 0.0));
        });
    const auto timing = classesOf(
        operatingGrid(spec).size(), [&](std::size_t ga, std::size_t gb) {
            return std::all_of(
                spec.schemes.begin(), spec.schemes.end(),
                [&](WriteScheme s) {
                    return sharesReplay(
                        pointConfig(spec, s, pointVdd(spec, ga)),
                        pointConfig(spec, s, pointVdd(spec, gb)));
                });
        });
    std::vector<JobRuns> jobs;
    for (const std::vector<std::size_t> &points : timing) {
        for (const std::vector<std::size_t> &group : groups) {
            JobRuns &job = jobs.emplace_back();
            for (const std::size_t gi : points) {
                for (const std::size_t si : group)
                    job.emplace_back(gi, si);
            }
        }
    }
    return jobs;
}

} // anonymous namespace

const VddCurve *
VddSweepResult::curve(WriteScheme scheme) const
{
    const char *name = toString(scheme);
    for (const VddCurve &c : curves) {
        if (c.scheme == name)
            return &c;
    }
    return nullptr;
}

void
validateOperatingPoints(const std::vector<double> &grid,
                        std::uint32_t faultRows,
                        const sram::VddModelParams &model,
                        const std::string &owner)
{
    for (std::size_t i = 1; i < grid.size(); ++i) {
        if (!(grid[i] < grid[i - 1]))
            throw std::invalid_argument(
                owner + ": grid must be strictly descending");
    }
    if (!grid.empty() && grid.back() <= 0.0)
        throw std::invalid_argument(owner + ": grid voltages must be > 0");
    if (faultRows == 0)
        throw std::invalid_argument(owner + ": faultRows must be >= 1");
    model.validate();
}

void
VddSweepResult::dumpJson(std::ostream &os) const
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    os << "{\"schema_version\":" << stats::Registry::kJsonSchemaVersion
       << ",\"kind\":\"vdd_sweep\"";
    // New key only when the feature is active: single-level documents
    // stay byte-identical (modulo the schema version).
    if (hierarchy)
        os << ",\"hierarchy\":true";
    os << ",\"workload\":\"" << stats::jsonEscape(workload) << "\""
       << ",\"failure_threshold\":";
    stats::jsonNumber(os, failureThreshold);
    os << ",\"grid\":[";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        os << (i ? "," : "");
        stats::jsonNumber(os, grid[i]);
    }
    os << "],\"curves\":[";
    for (std::size_t ci = 0; ci < curves.size(); ++ci) {
        const VddCurve &c = curves[ci];
        os << (ci ? "," : "") << "{\"scheme\":\""
           << stats::jsonEscape(c.scheme) << "\""
           << ",\"cell\":\"" << sram::toString(c.cell) << "\""
           << ",\"min_vdd\":";
        stats::jsonNumber(os, c.minVdd);
        os << ",\"points\":[";
        for (std::size_t pi = 0; pi < c.points.size(); ++pi) {
            const VddPointResult &p = c.points[pi];
            os << (pi ? "," : "") << "{\"vdd\":";
            stats::jsonNumber(os, p.vdd);
            os << ",\"energy_scale\":";
            stats::jsonNumber(os, p.point.energyScale);
            os << ",\"leakage_scale\":";
            stats::jsonNumber(os, p.point.leakageScale);
            os << ",\"delay_factor\":";
            stats::jsonNumber(os, p.point.delayFactor);
            os << ",\"pfail_cell\":";
            stats::jsonNumber(os, p.point.pfailCell);
            os << ",\"fault_words\":" << p.faults.words
               << ",\"corrected\":" << p.faults.corrected
               << ",\"detected_uncorrectable\":"
               << p.faults.detectedUncorrectable
               << ",\"silent_corruptions\":" << p.faults.silentCorruptions
               << ",\"post_ecc_failure_rate\":";
            stats::jsonNumber(os, p.faults.postEccFailureRate());
            os << ",\"operational\":" << (p.operational ? "true" : "false")
               << ",\"dynamic_energy_per_access\":";
            stats::jsonNumber(os, p.dynamicEnergyPerAccess);
            os << ",\"leakage_energy_per_access\":";
            stats::jsonNumber(os, p.leakageEnergyPerAccess);
            os << ",\"energy_per_access\":";
            stats::jsonNumber(os, p.energyPerAccess);
            os << ",\"cycles_per_access\":";
            stats::jsonNumber(os, p.cyclesPerAccess);
            os << ",\"edp_per_access\":";
            stats::jsonNumber(os, p.edpPerAccess);
            os << '}';
        }
        os << "]}";
    }
    os << "]}";
}

const VddPointResult *
minVddPoint(const VddCurve &curve)
{
    for (const VddPointResult &p : curve.points) {
        if (p.vdd == curve.minVdd)
            return &p;
    }
    return nullptr;
}

std::size_t
appendOperatingPointJobs(const VddSweepSpec &spec, VddFaultTable &faults,
                         std::vector<SweepJob> &jobs)
{
    const bool nominal_only = spec.grid.empty();
    const sram::VddModel model(spec.model);
    const std::uint32_t words_per_row =
        std::max<std::uint32_t>(1, sweptShape(spec).setBytes() / 8);
    const std::vector<JobRuns> layout = jobLayout(spec);

    faults.assign(operatingGrid(spec).size(),
                  std::vector<sram::FaultMapStats>(spec.schemes.size()));
    for (const JobRuns &runs : layout) {
        SweepJob job;
        job.makeGenerator = spec.makeGenerator;
        job.streamKey = spec.streamKey;
        job.vdd = pointVdd(spec, runs.front().first);
        // Fault maps depend on (seed, vdd, geometry, cell): schemes of
        // the same cell flavour and interleave degree share one
        // evaluation through the process-global single-flight memo,
        // across jobs and requests too (a warm c8td re-serves known
        // operating points for free). Each point of a timing class
        // still has a campaign of its own.
        std::vector<std::tuple<std::size_t, std::size_t,
                               sram::FaultMapConfig>>
            campaigns;
        for (const auto &[gi, si] : runs) {
            const WriteScheme s = spec.schemes[si];
            job.configs.push_back(pointConfig(spec, s, pointVdd(spec, gi)));
            if (nominal_only)
                continue;
            sram::FaultMapConfig fmc;
            fmc.runSeed = spec.runSeed;
            fmc.vdd = spec.grid[gi];
            fmc.cell = cellOf(s);
            fmc.pfailCell = model.at(fmc.vdd, fmc.cell).pfailCell;
            fmc.rows = spec.faultRows;
            fmc.wordsPerRow = words_per_row;
            fmc.degree = sweptGeometry(spec, s).interleaveDegree;
            campaigns.emplace_back(gi, si, fmc);
        }
        if (!nominal_only) {
            // The campaigns run on the job's worker right after its
            // replay, overlapping the other jobs' replay; each job
            // writes only its own (grid point, scheme) cells of
            // @p faults.
            job.inspect = [campaigns = std::move(campaigns),
                           &faults](MultiSchemeRunner &) {
                for (const auto &[gi, si, fmc] : campaigns)
                    faults[gi][si] = globalFaultMapCache().evaluate(fmc);
            };
        }
        jobs.push_back(std::move(job));
    }
    return layout.size();
}

std::vector<VddCurve>
reduceOperatingPoints(const VddSweepSpec &spec, const VddFaultTable &faults,
                      std::span<const std::vector<SchemeRunResult>> runs)
{
    const bool nominal_only = spec.grid.empty();
    const std::vector<double> grid = operatingGrid(spec);
    const sram::VddModel model(spec.model);
    const double period = model.clockPeriod();

    // Where each (grid point, scheme) run sits: result
    // slot[gi][si].second of job slot[gi][si].first.
    const std::vector<JobRuns> layout = jobLayout(spec);
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> slot(
        grid.size(),
        std::vector<std::pair<std::size_t, std::size_t>>(spec.schemes.size()));
    for (std::size_t j = 0; j < layout.size(); ++j) {
        for (std::size_t k = 0; k < layout[j].size(); ++k)
            slot[layout[j][k].first][layout[j][k].second] = {j, k};
    }
    const sram::TechParams tech = ControllerConfig{}.tech;

    // Hierarchy mode adds the pinned L1's leakage at its own (fixed)
    // operating point; the grid only scales the L2's.
    double leak_top_fixed = 0.0;
    if (!spec.lowerLevels.empty()) {
        const sram::EnergyModel top_em(
            dataArrayGeometry(spec.cache, spec.topScheme,
                              ControllerConfig{}.interleaveDegree),
            tech);
        const double top_scale =
            spec.topVdd > 0.0
                ? model.at(spec.topVdd, cellOf(spec.topScheme))
                      .leakageScale
                : 1.0;
        leak_top_fixed = top_em.leakagePower() * top_scale;
    }

    std::vector<VddCurve> curves;
    curves.reserve(spec.schemes.size());
    for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
        const WriteScheme scheme = spec.schemes[si];
        const sram::CellType cell = cellOf(scheme);
        const double leak_nominal =
            sram::EnergyModel(sweptGeometry(spec, scheme), tech)
                .leakagePower();

        VddCurve curve;
        curve.scheme = toString(scheme);
        curve.cell = cell;
        curve.points.reserve(grid.size());

        bool reachable = true;
        for (std::size_t gi = 0; gi < grid.size(); ++gi) {
            VddPointResult pt;
            pt.vdd = grid[gi];
            pt.point = model.at(pt.vdd, cell);
            pt.faults = faults[gi][si];
            // Nominal-only runs have no fault dimension: the single
            // point is operational by definition.
            pt.operational =
                nominal_only ||
                pt.faults.postEccFailureRate() <= spec.failureThreshold;
            pt.run = runs[slot[gi][si].first][slot[gi][si].second];

            const double requests =
                static_cast<double>(pt.run.requests);
            if (requests > 0.0) {
                const double seconds =
                    static_cast<double>(pt.run.cycles) * period;
                // totalDynamicEnergy == dynamicEnergy bit-identically
                // for a single level; hierarchy-wide otherwise.
                pt.dynamicEnergyPerAccess =
                    pt.run.totalDynamicEnergy / requests;
                pt.leakageEnergyPerAccess = (leak_top_fixed +
                                             leak_nominal *
                                                 pt.point.leakageScale) *
                                            seconds / requests;
                pt.energyPerAccess = pt.dynamicEnergyPerAccess +
                                     pt.leakageEnergyPerAccess;
                pt.cyclesPerAccess =
                    static_cast<double>(pt.run.cycles) / requests;
                pt.edpPerAccess =
                    pt.energyPerAccess * pt.cyclesPerAccess * period;
            }

            // min-Vdd: the lowest voltage reachable from nominal
            // through operational points only — an operational island
            // below a failing point is unusable, DVFS descends the
            // curve continuously.
            if (reachable && pt.operational)
                curve.minVdd = pt.vdd;
            else
                reachable = false;

            curve.points.push_back(std::move(pt));
        }
        curves.push_back(std::move(curve));
    }
    return curves;
}

VddSweepResult
runVddSweep(const VddSweepSpec &spec, const RunConfig &rc, unsigned workers)
{
    validate(spec);

    VddFaultTable faults;
    std::vector<SweepJob> jobs;
    appendOperatingPointJobs(spec, faults, jobs);

    VddSweepResult result;
    result.failureThreshold = spec.failureThreshold;
    result.grid = spec.grid;
    result.hierarchy = !spec.lowerLevels.empty();

    // Hierarchy sweeps get their own label so their heartbeat and
    // trace spans are told apart from a single-level sweep's.
    const ParallelSweeper sweeper(workers);
    const std::vector<std::vector<SchemeRunResult>> runs = sweeper.run(
        jobs, rc, result.hierarchy ? "vdd_sweep+l2" : "vdd_sweep");

    // Every run replays the one stream, so the first names the
    // workload; the factory is called only inside the jobs.
    result.workload = runs.front().front().workload;
    result.curves = reduceOperatingPoints(spec, faults, runs);
    return result;
}

} // namespace c8t::core

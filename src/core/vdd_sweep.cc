/**
 * @file
 * Voltage sweep driver implementation.
 */

#include "core/vdd_sweep.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "obs/prof.hh"
#include "sram/energy.hh"
#include "stats/json.hh"

namespace c8t::core
{

namespace
{

void
validate(const VddSweepSpec &spec)
{
    if (spec.grid.empty())
        throw std::invalid_argument("VddSweepSpec: empty grid");
    for (std::size_t i = 1; i < spec.grid.size(); ++i) {
        if (!(spec.grid[i] < spec.grid[i - 1]))
            throw std::invalid_argument(
                "VddSweepSpec: grid must be strictly descending");
    }
    if (spec.grid.back() <= 0.0)
        throw std::invalid_argument("VddSweepSpec: grid voltages must be > 0");
    if (spec.schemes.empty())
        throw std::invalid_argument("VddSweepSpec: no schemes");
    if (!spec.makeGenerator)
        throw std::invalid_argument("VddSweepSpec: no workload factory");
    if (spec.faultRows == 0)
        throw std::invalid_argument("VddSweepSpec: faultRows must be >= 1");
    for (const LevelConfig &l : spec.lowerLevels) {
        if (l.cache.blockBytes != spec.cache.blockBytes)
            throw std::invalid_argument(
                "VddSweepSpec: lower-level block size must match the "
                "top level's");
    }
    spec.model.validate();
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

/** The plan groups of every grid point of @p spec, as scheme indices:
 *  one group per set of configurations that core::sharesPlan, in order
 *  of their first scheme. Every config of a point shares its supply,
 *  so the grouping is the same at each point: one group of every
 *  scheme for a single-level spec, one group per scheme in hierarchy
 *  mode (the schemes' L2s differ). */
std::vector<std::vector<std::size_t>>
planGroups(const VddSweepSpec &spec)
{
    std::vector<ControllerConfig> configs;
    for (const WriteScheme s : spec.schemes)
        configs.push_back(pointConfig(spec, s, 0.0));
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t si = 0; si < configs.size(); ++si) {
        const auto g = std::find_if(
            groups.begin(), groups.end(), [&](const auto &group) {
                return sharesPlan(configs[group.front()], configs[si]);
            });
        if (g == groups.end())
            groups.push_back({si});
        else
            g->push_back(si);
    }
    return groups;
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
VddSweepResult::registerStats(stats::Registry &reg)
{
    for (const VddCurve &c : curves) {
        auto min_vdd = std::make_unique<stats::Gauge>(
            "vdd_sweep." + c.scheme + ".min_vdd",
            "lowest operational supply voltage (V)");
        min_vdd->set(c.minVdd);
        reg.add(*min_vdd);
        _gauges.push_back(std::move(min_vdd));

        // Energy per access at the min-Vdd point (the paper's payoff
        // number: what the low-voltage mode actually costs).
        const VddPointResult *at_min = minVddPoint(c);
        const double energy_at_min =
            at_min ? at_min->energyPerAccess : 0.0;
        auto energy = std::make_unique<stats::Gauge>(
            "vdd_sweep." + c.scheme + ".energy_per_access_at_min",
            "total energy per access at min-Vdd (J)");
        energy->set(energy_at_min);
        reg.add(*energy);
        _gauges.push_back(std::move(energy));
    }
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
    const std::vector<double> grid = operatingGrid(spec);
    const sram::VddModel model(spec.model);
    const std::uint32_t words_per_row =
        std::max<std::uint32_t>(1, sweptShape(spec).setBytes() / 8);
    const std::vector<std::vector<std::size_t>> groups = planGroups(spec);

    faults.assign(grid.size(),
                  std::vector<sram::FaultMapStats>(spec.schemes.size()));
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        // Nominal-only runs keep the voltage model detached.
        const double vdd = nominal_only ? 0.0 : grid[gi];
        for (const std::vector<std::size_t> &group : groups) {
            SweepJob job;
            job.makeGenerator = spec.makeGenerator;
            job.streamKey = spec.streamKey;
            job.vdd = vdd;
            // Fault maps depend on (seed, vdd, geometry, cell): schemes
            // of the same cell flavour and interleave degree share one
            // evaluation through the process-global single-flight
            // memo, across jobs and requests too (a warm c8td
            // re-serves known operating points for free).
            std::vector<std::pair<std::size_t, sram::FaultMapConfig>>
                campaigns;
            for (const std::size_t si : group) {
                const WriteScheme s = spec.schemes[si];
                job.configs.push_back(pointConfig(spec, s, vdd));
                if (nominal_only)
                    continue;
                sram::FaultMapConfig fmc;
                fmc.runSeed = spec.runSeed;
                fmc.vdd = vdd;
                fmc.cell = cellOf(s);
                fmc.pfailCell = model.at(fmc.vdd, fmc.cell).pfailCell;
                fmc.rows = spec.faultRows;
                fmc.wordsPerRow = words_per_row;
                fmc.degree = sweptGeometry(spec, s).interleaveDegree;
                campaigns.emplace_back(si, fmc);
            }
            if (!nominal_only) {
                // The campaigns run on the job's worker right after
                // its replay, overlapping the other jobs' replay; each
                // job writes only its own schemes' cells of @p faults.
                job.inspect = [campaigns = std::move(campaigns),
                               &row = faults[gi]](MultiSchemeRunner &) {
                    for (const auto &[si, fmc] : campaigns)
                        row[si] = globalFaultMapCache().evaluate(fmc);
                };
            }
            jobs.push_back(std::move(job));
        }
    }
    return grid.size() * groups.size();
}

std::vector<VddCurve>
reduceOperatingPoints(const VddSweepSpec &spec, const VddFaultTable &faults,
                      std::span<const std::vector<SchemeRunResult>> runs)
{
    const bool nominal_only = spec.grid.empty();
    const std::vector<double> grid = operatingGrid(spec);
    const sram::VddModel model(spec.model);
    const double period = model.clockPeriod();

    // Where scheme si's run sits among each grid point's jobs: job
    // slot[si].first of the point, result slot[si].second of the job.
    const std::vector<std::vector<std::size_t>> groups = planGroups(spec);
    std::vector<std::pair<std::size_t, std::size_t>> slot(
        spec.schemes.size());
    for (std::size_t j = 0; j < groups.size(); ++j) {
        for (std::size_t k = 0; k < groups[j].size(); ++k)
            slot[groups[j][k]] = {j, k};
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
            pt.run = runs[gi * groups.size() + slot[si].first]
                         [slot[si].second];

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
    result.workload = spec.makeGenerator()->name();
    result.failureThreshold = spec.failureThreshold;
    result.grid = spec.grid;
    result.hierarchy = !spec.lowerLevels.empty();

    // Hierarchy sweeps get their own label so their heartbeat and
    // trace spans are told apart from a single-level sweep's.
    const std::string label =
        "vdd_sweep:" + result.workload + (result.hierarchy ? "+l2" : "");

    const ParallelSweeper sweeper(workers);
    result.curves =
        reduceOperatingPoints(spec, faults, sweeper.run(jobs, rc, label));

    return result;
}

} // namespace c8t::core

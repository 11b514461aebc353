/**
 * @file
 * Voltage sweep driver implementation.
 */

#include "core/vdd_sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "obs/metrics.hh"
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

/** The cell flavour @p scheme's data array is built from. */
sram::CellType
cellOf(WriteScheme scheme)
{
    return schemeTraits(scheme).requiresEightT ? sram::CellType::EightT
                                               : sram::CellType::SixT;
}

/** The data-array geometry the controller would build for @p scheme
 *  (mirrors the CacheController constructor) on the swept shape. */
sram::ArrayGeometry
geometryFor(const VddSweepSpec &spec, WriteScheme scheme)
{
    const SchemeTraits traits = schemeTraits(scheme);
    const std::uint32_t degree =
        spec.lowerLevels.empty()
            ? ControllerConfig{}.interleaveDegree
            : spec.lowerLevels.front().interleaveDegree;
    const mem::CacheConfig &shape = sweptShape(spec);
    return sram::ArrayGeometry{
        shape.numSets(), shape.setBytes(),
        traits.requiresNonInterleaved ? 1u : degree,
        scheme == WriteScheme::WordGranular};
}

/** Append the kind:"vdd" perf record when C8T_BENCH_JSON is set. */
void
emitVddBenchJson(const std::string &label, const VddSweepResult &result,
                 const RunConfig &rc, unsigned workers,
                 double wall_seconds,
                 const obs::prof::PhaseTimes *phases)
{
    const char *path = std::getenv("C8T_BENCH_JSON");
    if (!path || !*path)
        return;

    std::uint64_t config_runs = 0;
    for (const VddCurve &c : result.curves)
        config_runs += c.points.size();
    const double simulated =
        static_cast<double>(config_runs) *
        static_cast<double>(rc.warmupAccesses + rc.measureAccesses);

    std::ofstream os(path, std::ios::app);
    if (!os) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            std::cerr << "vdd_sweep: cannot open C8T_BENCH_JSON=\"" << path
                      << "\" for append; perf records disabled\n";
        }
        return;
    }
    os << "{\"kind\":\"vdd\",\"label\":\"" << stats::jsonEscape(label)
       << "\""
       << ",\"grid_points\":" << result.grid.size()
       << ",\"schemes\":" << result.curves.size()
       << ",\"workers\":" << workers
       << ",\"config_runs\":" << config_runs
       << ",\"warmup_accesses\":" << rc.warmupAccesses
       << ",\"measure_accesses\":" << rc.measureAccesses
       << ",\"simulated_accesses\":" << static_cast<std::uint64_t>(simulated)
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"accesses_per_sec\":"
       << (wall_seconds > 0.0 ? simulated / wall_seconds : 0.0)
       << ",\"min_vdd\":{";
    bool first = true;
    for (const VddCurve &c : result.curves) {
        os << (first ? "" : ",") << '"' << stats::jsonEscape(c.scheme)
           << "\":";
        stats::jsonNumber(os, c.minVdd);
        first = false;
    }
    os << "}";
    if (phases) {
        os << ",\"phases\":{";
        for (std::size_t i = 0; i < obs::prof::kNumPhases; ++i) {
            os << "\""
               << obs::prof::toString(static_cast<obs::prof::Phase>(i))
               << "\":";
            stats::jsonNumber(os, static_cast<double>(phases->ns[i]) *
                                      1e-9);
            os << ",";
        }
        os << "\"total\":";
        stats::jsonNumber(os,
                          static_cast<double>(phases->totalNs()) * 1e-9);
        os << "}";
    }
    os << "}\n";
}

} // anonymous namespace

/** Deferred bench-record state, armed by runVddSweep and consumed by
 *  emitBenchRecord(). Lives behind a unique_ptr so the header does not
 *  need the definition. */
struct VddSweepResult::Pending
{
    std::string label;
    RunConfig rc;
    unsigned workers = 0;
    double wallSeconds = 0.0;
    obs::prof::PhaseTimes phasesBefore;
    bool profOn = false;
};

VddSweepResult::VddSweepResult() = default;
VddSweepResult::VddSweepResult(VddSweepResult &&) noexcept = default;
VddSweepResult &
VddSweepResult::operator=(VddSweepResult &&) noexcept = default;

VddSweepResult::~VddSweepResult()
{
    emitBenchRecord();
}

void
VddSweepResult::emitBenchRecord()
{
    if (!_pending)
        return;
    const std::unique_ptr<Pending> p = std::move(_pending);
    obs::prof::PhaseTimes run_phases;
    if (p->profOn) {
        // Fold in everything this thread did since the sweep started —
        // including the caller's dumpJson/table Serialize scopes —
        // and diff against the entry snapshot.
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
        const obs::prof::PhaseTimes after =
            obs::globalMetrics().phaseTimes();
        for (std::size_t i = 0; i < obs::prof::kNumPhases; ++i) {
            run_phases.ns[i] = after.ns[i] - p->phasesBefore.ns[i];
            run_phases.scopes[i] =
                after.scopes[i] - p->phasesBefore.scopes[i];
        }
    }
    emitVddBenchJson(p->label, *this, p->rc, p->workers, p->wallSeconds,
                     p->profOn ? &run_phases : nullptr);
    obs::writeGlobalMetrics();
}

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
        double energy_at_min = 0.0;
        for (const VddPointResult &p : c.points) {
            if (p.vdd == c.minVdd) {
                energy_at_min = p.energyPerAccess;
                break;
            }
        }
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

VddSweepResult
runVddSweep(const VddSweepSpec &spec, const RunConfig &rc, unsigned workers)
{
    validate(spec);
    const auto t0 = std::chrono::steady_clock::now();
    const bool prof_on = obs::prof::enabled();
    obs::prof::PhaseTimes phases_before;
    if (prof_on) {
        // The sweep's phase block is the delta of the process rollup
        // across this call; flush this thread so earlier activity is
        // not charged to it (worker threads flush per job).
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
        phases_before = obs::globalMetrics().phaseTimes();
    }
    const sram::VddModel model(spec.model);

    const bool hier = !spec.lowerLevels.empty();

    // Fault maps depend on (seed, vdd, geometry, cell); schemes of the
    // same cell flavour and interleave degree share one evaluation,
    // and the process-global memo shares it across requests too (a
    // warm c8td daemon re-serves known operating points for free).
    const std::uint32_t words_per_row =
        std::max<std::uint32_t>(1, sweptShape(spec).setBytes() / 8);
    const auto faultsAt = [&](WriteScheme scheme, double vdd) {
        sram::FaultMapConfig fmc;
        fmc.runSeed = spec.runSeed;
        fmc.vdd = vdd;
        fmc.cell = cellOf(scheme);
        fmc.pfailCell = model.at(fmc.vdd, fmc.cell).pfailCell;
        fmc.rows = spec.faultRows;
        fmc.wordsPerRow = words_per_row;
        fmc.degree = geometryFor(spec, scheme).interleaveDegree;
        return globalFaultMapCache().evaluate(fmc);
    };

    // One job per grid point; every job replays the identical stream
    // (shared through streamKey) with one controller per scheme, the
    // model attached at that point's voltage. Its inspect hook then
    // evaluates the point's fault maps on the same worker, so the
    // campaigns overlap the other points' replay; each job writes
    // only its own row of @c faults.
    std::vector<std::vector<sram::FaultMapStats>> faults(
        spec.grid.size(),
        std::vector<sram::FaultMapStats>(spec.schemes.size()));
    std::vector<SweepJob> jobs;
    jobs.reserve(spec.grid.size());
    for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
        const double vdd = spec.grid[gi];
        SweepJob job;
        job.makeGenerator = spec.makeGenerator;
        job.streamKey = spec.streamKey;
        job.vdd = vdd;
        job.configs.reserve(spec.schemes.size());
        for (const WriteScheme s : spec.schemes) {
            ControllerConfig cfg;
            cfg.cache = spec.cache;
            cfg.vmodel = spec.model;
            if (!hier) {
                cfg.scheme = s;
                cfg.vdd = vdd;
            } else {
                // Hierarchy mode: the L1 is pinned while the scheme
                // axis and the grid voltage ride on the L2.
                cfg.scheme = spec.topScheme;
                cfg.vdd = spec.topVdd;
                cfg.lowerLevels = spec.lowerLevels;
                cfg.lowerLevels.front().scheme = s;
                cfg.lowerLevels.front().vdd = vdd;
            }
            job.configs.push_back(cfg);
        }
        job.inspect = [&, gi, vdd](MultiSchemeRunner &) {
            for (std::size_t si = 0; si < spec.schemes.size(); ++si)
                faults[gi][si] = faultsAt(spec.schemes[si], vdd);
        };
        jobs.push_back(std::move(job));
    }

    VddSweepResult result;
    result.workload = spec.makeGenerator()->name();
    result.failureThreshold = spec.failureThreshold;
    result.grid = spec.grid;
    result.hierarchy = hier;

    // Hierarchy sweeps get their own label so their perf records never
    // pair with a single-level sweep of the same workload in
    // bench_diff (both kinds of record can land in one snapshot).
    const std::string label =
        "vdd_sweep:" + result.workload + (hier ? "+l2" : "");

    const ParallelSweeper sweeper(workers);
    const auto runs = sweeper.run(jobs, rc, label);

    result.curves.reserve(spec.schemes.size());
    for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
        const WriteScheme scheme = spec.schemes[si];
        const sram::CellType cell = cellOf(scheme);
        const sram::ArrayGeometry geom = geometryFor(spec, scheme);
        const sram::EnergyModel em(geom, ControllerConfig{}.tech);
        const double leak_nominal = em.leakagePower();
        const double period = model.clockPeriod();

        // Hierarchy mode adds the pinned L1's leakage at its own
        // (fixed) operating point; the grid only scales the L2's.
        double leak_top_fixed = 0.0;
        if (hier) {
            const SchemeTraits top_traits = schemeTraits(spec.topScheme);
            const sram::CellType top_cell = cellOf(spec.topScheme);
            const ControllerConfig defaults;
            const sram::ArrayGeometry top_geom{
                spec.cache.numSets(), spec.cache.setBytes(),
                top_traits.requiresNonInterleaved
                    ? 1u
                    : defaults.interleaveDegree,
                spec.topScheme == WriteScheme::WordGranular};
            const sram::EnergyModel top_em(top_geom, defaults.tech);
            const double top_scale =
                spec.topVdd > 0.0
                    ? model.at(spec.topVdd, top_cell).leakageScale
                    : 1.0;
            leak_top_fixed = top_em.leakagePower() * top_scale;
        }

        VddCurve curve;
        curve.scheme = toString(scheme);
        curve.cell = cell;
        curve.points.reserve(spec.grid.size());

        bool reachable = true;
        for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
            VddPointResult pt;
            pt.vdd = spec.grid[gi];
            pt.point = model.at(pt.vdd, cell);
            pt.faults = faults[gi][si];
            pt.operational =
                pt.faults.postEccFailureRate() <= spec.failureThreshold;
            pt.run = runs[gi][si];

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
        result.curves.push_back(std::move(curve));
    }

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Arm the deferred bench record: emitBenchRecord() (at the latest,
    // the result's destructor) writes it, so the caller's Serialize
    // scopes around dumpJson/table printing land in its phase block.
    result._pending = std::make_unique<VddSweepResult::Pending>();
    result._pending->label = label;
    result._pending->rc = rc;
    result._pending->workers = sweeper.workers();
    result._pending->wallSeconds = wall;
    result._pending->phasesBefore = phases_before;
    result._pending->profOn = prof_on;
    return result;
}

} // namespace c8t::core

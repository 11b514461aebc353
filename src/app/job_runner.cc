/**
 * @file
 * Shared job execution implementation.
 */

#include "app/job_runner.hh"

#include <atomic>
#include <sstream>

#include "app/options.hh"
#include "core/controller.hh"
#include "core/sweep.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "sram/cell.hh"
#include "stats/json.hh"
#include "stats/registry.hh"

namespace c8t::app
{

namespace
{

/** Resolve the spec's lower levels into controller LevelConfigs
 *  (DESIGN.md §14): a block size of 0 inherits the L1 block. */
std::vector<core::LevelConfig>
levelConfigs(const core::JobSpec &spec)
{
    std::vector<core::LevelConfig> out;
    out.reserve(spec.levels.size());
    for (const core::LevelSpec &l : spec.levels) {
        core::LevelConfig c;
        c.cache.sizeBytes = l.sizeKb * 1024;
        c.cache.ways = l.ways;
        c.cache.blockBytes =
            l.blockBytes ? l.blockBytes : spec.cache.blockBytes;
        c.cache.replacement = l.repl;
        c.scheme = l.scheme;
        c.vdd = l.vdd;
        out.push_back(c);
    }
    return out;
}

/** Execute a kind-Run job: one sweep job per scheme, per-scheme stats
 *  registries captured on the worker, document identical to c8tsim's
 *  historical writeStatsJson. */
JobOutcome
runPlain(const core::JobSpec &spec, unsigned workers,
         const JobHooks &hooks, bool include_profile)
{
    JobOutcome out;
    out.kind = core::JobKind::Run;

    const std::vector<core::WriteScheme> schemes =
        spec.effectiveSchemes();
    const std::vector<core::LevelConfig> lower = levelConfigs(spec);
    std::vector<core::ControllerConfig> cfgs;
    cfgs.reserve(schemes.size());
    for (core::WriteScheme s : schemes) {
        core::ControllerConfig c;
        c.cache = spec.cache;
        c.scheme = s;
        c.bufferEntries = spec.bufferEntries;
        c.silentDetection = spec.silentDetection;
        c.vdd = spec.vdd;
        c.lowerLevels = lower;
        cfgs.push_back(c);
    }

    const core::RunConfig rc{spec.effectiveWarmup(), spec.accesses};

    std::vector<std::string> stats_json(cfgs.size());
    std::atomic<std::uint64_t> done{0};
    const std::uint64_t total = cfgs.size();

    std::vector<core::SweepJob> jobs(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const std::string scheme = core::toString(cfgs[i].scheme);
        jobs[i].makeGenerator = [workload = spec.workload] {
            return makeWorkload(workload);
        };
        // One generation shared by every scheme job (and, under the
        // daemon, by every request for the same workload): the
        // specifier names a deterministic stream within this process.
        jobs[i].streamKey = "c8tsim:" + spec.workload;
        jobs[i].configs = {cfgs[i]};
        if (hooks.prepare) {
            jobs[i].prepare = [&hooks, i,
                               scheme](core::MultiSchemeRunner &r) {
                hooks.prepare(i, scheme, r);
            };
        }
        jobs[i].inspect = [&, i, scheme](core::MultiSchemeRunner &r) {
            // The per-scheme registry dump is both the document's
            // "stats" payload and the partial-result payload. The
            // whole stack registers: the top level unprefixed
            // (byte-identical for a single level), lower levels
            // under "l2."/"l3.".
            stats::Registry reg;
            r.stack(0).registerStats(reg);
            std::ostringstream os;
            reg.dumpJson(os);
            stats_json[i] = os.str();
            if (hooks.inspect)
                hooks.inspect(i, scheme, r);
            if (hooks.onProgress) {
                hooks.onProgress(
                    done.fetch_add(1, std::memory_order_relaxed) + 1,
                    total);
            }
        };
    }

    core::ParallelSweeper sweeper(workers);
    const auto per_scheme =
        sweeper.run(jobs, rc, "c8tsim:" + spec.workload);
    for (const auto &r : per_scheme)
        out.runs.push_back(r.at(0));

    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);

    if (hooks.onPartial) {
        for (std::size_t i = 0; i < out.runs.size(); ++i) {
            hooks.onPartial("{\"scheme\":\"" +
                            stats::jsonEscape(out.runs[i].scheme) +
                            "\",\"stats\":" + stats_json[i] + "}");
        }
    }

    std::ostringstream os;
    os << "{\"schema_version\":" << stats::Registry::kJsonSchemaVersion
       << ",\"workload\":\"" << stats::jsonEscape(spec.workload)
       << "\",\"cache\":\"" << stats::jsonEscape(spec.cache.toString())
       << "\",\"measure_accesses\":" << spec.accesses
       << ",\"warmup_accesses\":" << spec.effectiveWarmup();
    if (include_profile) {
        // Fold this thread's times in first so the embedded profile
        // covers the whole run; worker threads already flushed per
        // job.
        obs::globalMetrics().addPhaseTimes(obs::prof::takeThreadTimes());
        os << ",\"profile\":";
        obs::globalMetrics().writeProfileJson(os);
    }
    os << ",\"runs\":[";
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
        os << (i ? "," : "") << "\n{\"scheme\":\""
           << stats::jsonEscape(out.runs[i].scheme)
           << "\",\"stats\":" << stats_json[i] << '}';
    }
    os << "\n]}\n";
    out.document = os.str();
    return out;
}

/** Execute a kind-VddSweep job (the c8tsim --vdd-sweep path). */
JobOutcome
runVdd(const core::JobSpec &spec, unsigned workers,
       const JobHooks &hooks)
{
    JobOutcome out;
    out.kind = core::JobKind::VddSweep;

    core::VddSweepSpec vspec;
    vspec.cache = spec.cache;
    vspec.schemes = spec.effectiveSchemes();
    // A hierarchy spec sweeps the L2: the grid voltage and the scheme
    // axis apply to the lower level while the 6T L1 stays at nominal.
    vspec.lowerLevels = levelConfigs(spec);
    if (spec.vdd > 0.0) {
        // An explicit operating point narrows the sweep to it (useful
        // for drilling into one point's fault map).
        vspec.grid = {spec.vdd};
    }
    vspec.makeGenerator = [workload = spec.workload] {
        return makeWorkload(workload);
    };
    vspec.streamKey = "c8tsim:" + spec.workload;

    const core::RunConfig rc{spec.effectiveWarmup(), spec.accesses};
    if (hooks.onProgress)
        hooks.onProgress(0, vspec.grid.size());
    out.vdd = std::make_unique<core::VddSweepResult>(
        core::runVddSweep(vspec, rc, workers));
    if (hooks.onProgress)
        hooks.onProgress(vspec.grid.size(), vspec.grid.size());

    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);

    if (hooks.onPartial) {
        for (const core::VddCurve &c : out.vdd->curves) {
            std::ostringstream p;
            p << "{\"scheme\":\"" << stats::jsonEscape(c.scheme)
              << "\",\"cell\":\"" << sram::toString(c.cell)
              << "\",\"min_vdd\":";
            stats::jsonNumber(p, c.minVdd);
            p << "}";
            hooks.onPartial(p.str());
        }
    }

    std::ostringstream os;
    out.vdd->dumpJson(os);
    os << "\n";
    out.document = os.str();
    return out;
}

/** Execute a kind-Explore job (the c8tsim --explore path). */
JobOutcome
runExploreJob(const core::JobSpec &spec, unsigned workers,
              const JobHooks &hooks)
{
    JobOutcome out;
    out.kind = core::JobKind::Explore;

    const core::ExplorerSpec espec = spec.explorerSpec();
    const core::RunConfig rc{spec.effectiveWarmup(), spec.accesses};
    if (hooks.onProgress)
        hooks.onProgress(0, espec.configRunCount());
    out.explore = std::make_unique<core::ExploreResult>(
        core::runExplore(espec, rc, workers));
    if (hooks.onProgress) {
        hooks.onProgress(out.explore->configRunsExecuted,
                         out.explore->configRunsTotal);
    }

    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);

    if (hooks.onPartial) {
        std::ostringstream p;
        p << "{\"shards_total\":" << out.explore->shardsTotal
          << ",\"shards_executed\":" << out.explore->shardsExecuted
          << ",\"shards_resumed\":" << out.explore->shardsResumed
          << ",\"summaries\":" << out.explore->summaries.size() << "}";
        hooks.onPartial(p.str());
    }

    std::ostringstream os;
    out.explore->dumpJson(os);
    os << "\n";
    out.document = os.str();
    return out;
}

} // anonymous namespace

JobOutcome
runJobSpec(const core::JobSpec &spec, unsigned workers,
           const JobHooks &hooks, bool include_profile)
{
    spec.validate();
    switch (spec.kind) {
      case core::JobKind::VddSweep:
        return runVdd(spec, workers, hooks);
      case core::JobKind::Explore:
        return runExploreJob(spec, workers, hooks);
      case core::JobKind::Run:
      default:
        return runPlain(spec, workers, hooks, include_profile);
    }
}

} // namespace c8t::app

/**
 * @file
 * Shared job execution implementation.
 */

#include "app/job_runner.hh"

#include <atomic>
#include <sstream>

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

/** Execute a kind-Run job: one sweep job per scheme, per-scheme stats
 *  registries captured on the worker, document identical to c8tsim's
 *  historical writeStatsJson. */
JobOutcome
runPlain(const core::JobSpec &spec, unsigned workers,
         const JobHooks &hooks, bool include_profile)
{
    JobOutcome out;
    std::vector<core::SweepJob> jobs = spec.sweepJobs();
    std::vector<std::string> stats_json(jobs.size());
    std::atomic<std::uint64_t> done{0};
    const std::uint64_t total = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string scheme = core::toString(jobs[i].configs[0].scheme);
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

    const core::ParallelSweeper sweeper(workers);
    for (const auto &r :
         sweeper.run(jobs, spec.runConfig(), spec.streamKey()))
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
    const core::VddSweepSpec vspec = spec.vddSweepSpec();
    if (hooks.onProgress)
        hooks.onProgress(0, vspec.grid.size());
    out.vdd = std::make_unique<core::VddSweepResult>(
        core::runVddSweep(vspec, spec.runConfig(), workers));
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
    out.document = os.str() + "\n";
    return out;
}

/** Execute a kind-Explore job (the c8tsim --explore path). */
JobOutcome
runExploreJob(const core::JobSpec &spec, unsigned workers,
              const JobHooks &hooks)
{
    JobOutcome out;
    const core::ExplorerSpec espec = spec.explorerSpec();
    if (hooks.onProgress)
        hooks.onProgress(0, espec.configRunCount());
    out.explore = std::make_unique<core::ExploreResult>(
        core::runExplore(espec, spec.runConfig(), workers));
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
    out.document = os.str() + "\n";
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

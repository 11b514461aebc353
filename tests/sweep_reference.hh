/**
 * @file
 * Test-only reference for the operating-point engine: the curves of a
 * VddSweepSpec computed one scheme at a time, with every (grid point,
 * scheme) configuration run serially through a MultiSchemeRunner of
 * its own. No two configurations share a runner, so the reference
 * depends neither on how the engine groups schemes into jobs nor on
 * which supplies it replays once and prices per point; the fault
 * campaigns come from the engine's own inspect hooks and the
 * per-scheme reduction from reduceOperatingPoints.
 */

#ifndef C8T_TESTS_SWEEP_REFERENCE_HH
#define C8T_TESTS_SWEEP_REFERENCE_HH

#include <vector>

#include "core/simulator.hh"
#include "core/sweep.hh"
#include "core/vdd_sweep.hh"

namespace c8t::core
{

/** @p spec's curves, one scheme and one runner per config at a time. */
inline std::vector<VddCurve>
referenceCurves(const VddSweepSpec &spec, const RunConfig &rc)
{
    std::vector<VddCurve> curves;
    for (const WriteScheme scheme : spec.schemes) {
        VddSweepSpec one = spec;
        one.schemes = {scheme};
        VddFaultTable faults;
        std::vector<SweepJob> jobs;
        appendOperatingPointJobs(one, faults, jobs);

        std::vector<std::vector<SchemeRunResult>> runs;
        for (const SweepJob &job : jobs) {
            std::vector<SchemeRunResult> &job_runs = runs.emplace_back();
            for (const ControllerConfig &config : job.configs) {
                MultiSchemeRunner runner({config});
                const auto gen = one.makeGenerator();
                job_runs.push_back(runner.run(*gen, rc).front());
                // The job's hook (its fault campaigns) runs once, after
                // its last configuration.
                if (job.inspect && job_runs.size() == job.configs.size())
                    job.inspect(runner);
            }
        }
        curves.push_back(reduceOperatingPoints(one, faults, runs).front());
    }
    return curves;
}

} // namespace c8t::core

#endif // C8T_TESTS_SWEEP_REFERENCE_HH

/**
 * @file
 * Test-only reference for the operating-point engine: the curves of a
 * VddSweepSpec computed one scheme at a time, with every (grid point,
 * scheme) configuration run serially through a MultiSchemeRunner of
 * its own. A one-scheme spec has one configuration per grid point, so
 * the reference does not depend on how the engine groups several
 * schemes into jobs or finds their runs again; the fault campaigns
 * come from the engine's own inspect hooks and the per-scheme
 * reduction from reduceOperatingPoints.
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
            MultiSchemeRunner runner(job.configs);
            const auto gen = one.makeGenerator();
            runs.push_back(runner.run(*gen, rc));
            if (job.inspect)
                job.inspect(runner);
        }
        curves.push_back(reduceOperatingPoints(one, faults, runs).front());
    }
    return curves;
}

} // namespace c8t::core

#endif // C8T_TESTS_SWEEP_REFERENCE_HH

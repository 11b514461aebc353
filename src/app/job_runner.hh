/**
 * @file
 * The shared job execution path (DESIGN.md §13): one core::JobSpec in,
 * one canonical schema-v5 result document out.
 *
 * Both front ends — the c8tsim command line and the c8td sweep daemon
 * — reduce their input to a JobSpec and call runJobSpec, so they
 * cannot drift: identical defaults, identical engine calls, identical
 * serialization, and therefore byte-identical result documents for
 * the same spec (the daemon golden tests diff the two directly).
 *
 * The outcome keeps the typed results (runs / Vdd curves / explore
 * summaries) alongside the document so the CLI can still print its
 * human tables without re-parsing its own JSON.
 */

#ifndef C8T_APP_JOB_RUNNER_HH
#define C8T_APP_JOB_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/job_spec.hh"
#include "core/simulator.hh"
#include "core/vdd_sweep.hh"

namespace c8t::app
{

/** Optional per-job observability hooks. */
struct JobHooks
{
    /**
     * Incremental completion, (done, total) in config-run units.
     * Reported per finished scheme run for kind Run; coarser (start /
     * finish) for the sweep kinds, whose inner loops the engine owns —
     * liveness there comes from the daemon heartbeat. Called from
     * worker threads; must be thread-safe.
     */
    std::function<void(std::uint64_t done, std::uint64_t total)>
        onProgress;

    /**
     * Partial result payloads (one JSON object per call): per-scheme
     * stats for kind Run, per-scheme curve summaries for a Vdd sweep,
     * shard accounting for an explore. Emitted between completion and
     * final-document assembly — ordering is guaranteed, streaming
     * timing is not (simulation output is reduced at the end).
     */
    std::function<void(const std::string &json)> onPartial;

    /**
     * Per-scheme runner attachment points (kind Run only; the c8tsim
     * event-ring / interval-snapshot plumbing). Same threading
     * contract as SweepJob::prepare / inspect.
     */
    std::function<void(std::size_t index, const std::string &scheme,
                       core::MultiSchemeRunner &runner)>
        prepare;
    std::function<void(std::size_t index, const std::string &scheme,
                       core::MultiSchemeRunner &runner)>
        inspect;
};

/** What a job produced. */
struct JobOutcome
{
    /** Per-scheme snapshots, spec order (kind Run). */
    std::vector<core::SchemeRunResult> runs;

    /** Sweep results (their kind only). */
    std::unique_ptr<core::VddSweepResult> vdd;
    std::unique_ptr<core::ExploreResult> explore;

    /**
     * The canonical result document: exactly the bytes `c8tsim
     * --stats-json` writes for the same spec (schema-v5; trailing
     * newline included). This is what the daemon's final-result frame
     * carries verbatim.
     */
    std::string document;
};

/**
 * Execute @p spec (validated first) and build its canonical document.
 *
 * @param spec           The job (validate() is called; throws
 *                       std::invalid_argument on a bad spec).
 * @param workers        Sweep worker threads; 0 = C8T_JOBS / hardware.
 *                       Ignored when a process SweepPool is installed.
 * @param hooks          Optional progress/partial/obs callbacks.
 * @param includeProfile Embed the process phase profile in a kind-Run
 *                       document (c8tsim passes obs::prof::enabled();
 *                       the daemon always passes false so documents
 *                       stay byte-comparable across server configs).
 */
JobOutcome runJobSpec(const core::JobSpec &spec, unsigned workers = 0,
                      const JobHooks &hooks = {},
                      bool includeProfile = false);

} // namespace c8t::app

#endif // C8T_APP_JOB_RUNNER_HH

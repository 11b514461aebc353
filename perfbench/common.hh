/**
 * @file
 * Shared types of the benchmark harness (perfbench/).
 *
 * One harness process runs one workload once, cold: it builds the
 * workload's inputs from the seed, marks the end of set-up, drives the
 * simulator through its public entry points and reports host-time
 * measurements plus a digest of every result document. run.py runs it
 * in fresh processes and turns the reports into the benchmark result.
 *
 * In traced mode the harness additionally records spans around the
 * calls it makes into each layer (spans.cc) and reports per-layer
 * metrics. No span is recorded inside the simulator itself.
 */

#ifndef C8TB_COMMON_HH
#define C8TB_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "trace/access.hh"

namespace c8tb
{

using Clock = std::chrono::steady_clock;

/** Command-line options of one harness run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned workers = 1;
    bool traced = false;
    /** daemon_mix: byte-compare every final frame with an in-process
     *  app::runJobSpec of the same spec after the measured window. */
    bool checkFrames = false;
    /** Scratch directory for checkpoints, sockets and span files. */
    std::string workdir = ".";
};

/** What one harness run measured. */
struct Report
{
    /** Host seconds of the measured window (the workload's fixed work). */
    double wallS = 0.0;
    /** Process user+sys CPU seconds over the same window. */
    double cpuS = 0.0;
    /** ru_maxrss at the end of the window (MiB). */
    double peakRssMb = 0.0;
    /** Simulated accesses: config-runs x (warm-up + measure). */
    double simAccesses = 0.0;
    /** Completed jobs (daemon requests; engine config-runs otherwise). */
    std::uint64_t jobs = 0;

    /** FNV-1a digest over every result document of the run. */
    std::string digest;
    /** Checked operations and how many failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Process-wide memo misses caused by the run (must repeat exactly
     *  for a given seed). -1 = not deterministic on this workload. */
    std::int64_t streamMisses = -1;
    std::int64_t faultMisses = -1;

    /** daemon_mix: client-observed round trips. */
    std::vector<double> jobLatencyMs;
    std::vector<double> hitLatencyUs;

    /** Traced runs: per-layer metrics by name. */
    std::map<std::string, double> layers;

    /** Record one checked operation. */
    void check(bool ok, const std::string &what);
};

/** Marks the end of set-up — the instant before the first job is
 *  submitted — then times the host-speed probe, ahead of the window. */
void markSetupDone();

/** Host-time window over the workload's fixed work. */
class Window
{
  public:
    /** Starts the clock and the CPU counters. */
    Window();
    /** Stops them and stores wall, CPU and peak RSS into @p r. */
    void stop(Report &r);

  private:
    Clock::time_point _t0;
    double _cpu0;
};

/** 64-bit FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** Fixed-width hex of a 64-bit digest. */
std::string hex64(std::uint64_t v);

/** Exact text of a result snapshot (doubles as hexfloat). */
std::string canonical(const c8t::core::SchemeRunResult &r);

/** splitmix64 step: the harness's only source of seeded randomness. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Metric-name form of a scheme name ("WG+RB" -> "WG_RB"). */
std::string schemeKey(const std::string &scheme);

/** The four workloads (workloads.cc). */
Report runSpecSweep(const Options &o);
Report runHierarchyVdd(const Options &o);
Report runExploreGrid(const Options &o);
Report runDaemonMix(const Options &o);

} // namespace c8tb

#endif // C8TB_COMMON_HH

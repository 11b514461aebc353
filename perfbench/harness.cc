/**
 * @file
 * c8tbench: runs one benchmark workload once and prints one JSON
 * report line on stdout (see common.hh). Driven by perfbench/run.py:
 *
 *   c8tbench --workload spec_sweep --seed 1 --workers 4 [--trace]
 *            [--check-frames] [--workdir DIR]
 */

#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "mem/simd.hh"
#include "spans.hh"
#include "stats/json.hh"

namespace c8tb
{

namespace
{

/** End of set-up, and the worker count the probe runs on. */
Clock::time_point g_setupDone{};
unsigned g_workers = 1;

/** Host-speed probe before the window: wall and process CPU seconds. */
double g_probeBeforeS = 0.0;
double g_probeBeforeCpuS = 0.0;

/** Process user+sys CPU seconds so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Probe iterations per thread: about 75 ms on a quiet 4-vCPU host. */
constexpr std::uint32_t kProbeIterations = 24'000'000;

/**
 * Host-speed probe: a fixed amount of benchmark-owned work — random
 * read-modify-writes over an L2-sized table — on every worker thread at
 * once. No simulator code runs here, so a change to the simulator
 * cannot move it, while a change in the shared host's speed moves it as
 * it moves the workload. Returns host seconds.
 */
double
probeSeconds(unsigned threads, double &cpuS)
{
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::atomic<std::uint64_t> sink{0};
    std::vector<std::thread> team;
    for (unsigned t = 0; t < threads; ++t) {
        team.emplace_back([t, &sink] {
            std::vector<std::uint64_t> table(1u << 15, t);
            std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1), acc = 0;
            for (std::uint32_t i = 0; i < kProbeIterations; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                std::uint64_t &e = table[x & (table.size() - 1)];
                acc += e;
                e = acc ^ x;
            }
            sink.fetch_add(acc, std::memory_order_relaxed);
        });
    }
    for (std::thread &th : team)
        th.join();
    cpuS = processCpuSeconds() - cpu0;
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Environment that would turn a run into a different program:
 *  profiler, exporters, progress lines, forced SIMD level. */
constexpr const char *kScrubbed[] = {
    "C8T_PROF",         "C8T_METRICS",  "C8T_BENCH_JSON",
    "C8T_CHROME_TRACE", "C8T_PROGRESS", "C8T_SIMD",
    "C8T_BENCH_ACCESSES",
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
monoSeconds(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"' << c8t::stats::jsonEscape(s) << '"';
}

void
jsonDoubles(std::ostream &os, const std::vector<double> &v)
{
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << ']';
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "c8tbench: " << why
              << "\nusage: c8tbench --workload "
                 "spec_sweep|hierarchy_vdd|explore_grid|daemon_mix "
                 "--seed N --workers N [--trace] [--check-frames] "
                 "[--workdir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage("bad value for " + flag + ": " + text);
    return v;
}

} // anonymous namespace

void
markSetupDone()
{
    if (g_setupDone != Clock::time_point{})
        return;
    g_setupDone = Clock::now();
    g_probeBeforeS = probeSeconds(g_workers, g_probeBeforeCpuS);
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    }
}

Window::Window() : _t0(Clock::now()), _cpu0(processCpuSeconds()) {}

void
Window::stop(Report &r)
{
    r.wallS = std::chrono::duration<double>(Clock::now() - _t0).count();
    r.cpuS = processCpuSeconds() - _cpu0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::string
canonical(const c8t::core::SchemeRunResult &r)
{
    std::ostringstream os;
    os << std::hexfloat << r.workload << '|' << r.scheme << '|'
       << r.requests << '|' << r.reads << '|' << r.writes << '|'
       << r.demandAccesses << '|' << r.demandRowReads << '|'
       << r.demandRowWrites << '|' << r.fillAccesses << '|' << r.hits
       << '|' << r.misses << '|' << r.groupedWrites << '|'
       << r.bypassedReads << '|' << r.prematureWritebacks << '|'
       << r.silentWritesDetected << '|' << r.silentGroupsElided << '|'
       << r.meanGroupSize << '|' << r.portStallCycles << '|'
       << r.portConflicts << '|' << r.meanReadLatency << '|'
       << r.dynamicEnergy << '|' << r.cycles << '|'
       << r.totalDynamicEnergy << "|levels:" << r.levels.size();
    for (const c8t::core::SchemeRunResult &l : r.levels)
        os << '[' << canonical(l) << ']';
    return os.str();
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
schemeKey(const std::string &scheme)
{
    std::string k = scheme;
    for (char &c : k) {
        if (c == '+')
            c = '_';
    }
    return k;
}

} // namespace c8tb

int
main(int argc, char **argv)
{
    using namespace c8tb;
    for (const char *name : kScrubbed)
        ::unsetenv(name);
    // The stream memo's budget decides what it keeps, so it is pinned
    // to the default rather than taken from the environment.
    ::setenv("C8T_STREAM_CACHE_MB", "512", 1);

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = parseCount(a, value());
        else if (a == "--workers")
            o.workers = static_cast<unsigned>(parseCount(a, value()));
        else if (a == "--workdir")
            o.workdir = value();
        else if (a == "--trace")
            o.traced = true;
        else if (a == "--check-frames")
            o.checkFrames = true;
        else
            usage("unknown argument " + a);
    }
    if (o.workers == 0)
        usage("--workers must be >= 1");
    // Every engine call gets the worker count explicitly; pinning
    // C8T_JOBS too covers any default-constructed sweeper.
    ::setenv("C8T_JOBS", std::to_string(o.workers).c_str(), 1);
    g_workers = o.workers;

    Report (*run)(const Options &) = nullptr;
    if (o.workload == "spec_sweep")
        run = runSpecSweep;
    else if (o.workload == "hierarchy_vdd")
        run = runHierarchyVdd;
    else if (o.workload == "explore_grid")
        run = runExploreGrid;
    else if (o.workload == "daemon_mix")
        run = runDaemonMix;
    else
        usage("unknown workload '" + o.workload + "'");

    // Resolving the SIMD level runs the auto-calibration stopwatch:
    // set-up work every simulator process pays before its first job.
    const char *simd =
        c8t::mem::simd::toString(c8t::mem::simd::activeLevel());
    if (o.traced)
        spans::enable();

    Report r;
    try {
        r = run(o);
    } catch (const std::exception &e) {
        r.check(false, std::string("exception: ") + e.what());
    }
    double probeAfterCpuS = 0.0;
    const double probeAfterS = probeSeconds(o.workers, probeAfterCpuS);

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":";
    jsonString(os, o.workload);
    os << ",\"seed\":" << o.seed << ",\"workers\":" << o.workers
       << ",\"traced\":" << (o.traced ? "true" : "false")
       << ",\"fingerprint\":{\"cpu\":";
    jsonString(os, cpuModel());
    os << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"compiler\":";
    jsonString(os, C8TB_COMPILER);
    os << ",\"build_type\":";
    jsonString(os, C8TB_BUILD_TYPE);
    os << ",\"simd\":";
    jsonString(os, simd);
    os << "},\"setup_end_mono\":" << monoSeconds(g_setupDone)
       << ",\"probe_s\":" << 0.5 * (g_probeBeforeS + probeAfterS)
       << ",\"probe_cpu_s\":" << 0.5 * (g_probeBeforeCpuS + probeAfterCpuS)
       << ",\"wall_s\":" << r.wallS << ",\"cpu_s\":" << r.cpuS
       << ",\"peak_rss_mb\":" << r.peakRssMb
       << ",\"sim_accesses\":" << r.simAccesses << ",\"jobs\":" << r.jobs
       << ",\"digest\":";
    jsonString(os, r.digest);
    os << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
        os << (i ? "," : "");
        jsonString(os, r.errors[i]);
    }
    os << "],\"stream_misses\":" << r.streamMisses
       << ",\"fault_misses\":" << r.faultMisses << ",\"job_latency_ms\":";
    jsonDoubles(os, r.jobLatencyMs);
    os << ",\"hit_latency_us\":";
    jsonDoubles(os, r.hitLatencyUs);
    os << ",\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : r.layers) {
        os << (first ? "" : ",");
        jsonString(os, name);
        os << ':' << value;
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;

    if (o.traced) {
        const std::string path = o.workdir + "/spans-" + o.workload + "-" +
                                  std::to_string(o.seed) + ".jsonl";
        spans::write(path, spans::collect());
    }
    return r.failed == 0 ? 0 : 1;
}

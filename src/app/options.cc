/**
 * @file
 * c8tsim option parsing implementation.
 */

#include "app/options.hh"

#include <sstream>
#include <stdexcept>

#include "core/decimal.hh"
#include "core/stream_cache.hh"
#include "core/sweep.hh"
#include "sram/vmodel.hh"
#include "trace/kernels.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_io.hh"

namespace c8t::app
{

namespace
{

double
parseDouble(const std::string &flag, const std::string &value)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument("trailing characters");
        return v;
    } catch (const std::exception &) {
        throw std::invalid_argument(flag + ": expected a number, got '" +
                                    value + "'");
    }
}

/** Split a comma-separated list ("16,32,64"); empty items rejected. */
std::vector<std::string>
splitList(const std::string &flag, const std::string &value)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream is(value);
    while (std::getline(is, item, ',')) {
        if (item.empty())
            throw std::invalid_argument(flag + ": empty list item in '" +
                                        value + "'");
        out.push_back(item);
    }
    if (out.empty())
        throw std::invalid_argument(flag + ": empty list");
    return out;
}

template <typename T, T (*parse)(const std::string &, const std::string &)>
std::vector<T>
parseList(const std::string &flag, const std::string &value)
{
    std::vector<T> out;
    for (const std::string &item : splitList(flag, value))
        out.push_back(parse(flag, item));
    return out;
}

} // anonymous namespace

std::uint64_t
parseU64(const std::string &flag, const std::string &value)
{
    if (const auto v = core::parseDecimal(value))
        return *v;
    throw std::invalid_argument(
        flag + ": expected an unsigned integer, got '" + value + "'");
}

std::uint32_t
parseU32(const std::string &flag, const std::string &value)
{
    const std::uint64_t v = parseU64(flag, value);
    if (v > UINT32_MAX)
        throw std::invalid_argument(flag + ": must be <= " +
                                    std::to_string(UINT32_MAX));
    return static_cast<std::uint32_t>(v);
}

std::size_t
parseStreamCacheMb(const std::string &flag, const std::string &value)
{
    if (const auto bytes =
            core::StreamCache::budgetBytes(parseU64(flag, value)))
        return *bytes;
    throw std::invalid_argument(
        flag + ": must be <= " +
        std::to_string(core::StreamCache::kMaxBudgetMb) + " MB");
}

unsigned
parseWorkerCount(const std::string &flag, const std::string &value,
                 bool zero_is_auto)
{
    const std::uint64_t v = parseU64(flag, value);
    if (v == 0 && !zero_is_auto)
        throw std::invalid_argument(flag + ": must be >= 1");
    constexpr unsigned max = core::ParallelSweeper::kMaxWorkers;
    if (v > max)
        throw std::invalid_argument(flag + ": must be <= " +
                                    std::to_string(max));
    return static_cast<unsigned>(v);
}

std::string
usageText()
{
    std::ostringstream os;
    os << "c8tsim — L1 data cache simulator for 8T-SRAM write schemes\n"
          "\n"
          "usage: c8tsim [options]\n"
          "\n"
          "workload\n"
          "  --workload SPEC     spec:<bench> | kernel:<name> | "
          "trace:<path>   (default spec:gcc)\n"
          "  --accesses N        measured accesses (default 1000000)\n"
          "  --warmup N          warm-up accesses (default accesses/10)\n"
          "  --record PATH       also write the stream to a trace file\n"
          "\n"
          "cache\n"
          "  --size KB           capacity in KiB (default 64)\n"
          "  --ways N            associativity (default 4)\n"
          "  --block B           block size in bytes (default 32)\n"
          "  --repl P            lru | plru | fifo | random (default lru)\n"
          "\n"
          "scheme\n"
          "  --scheme S          6T | RMW | LocalRMW | WordGranular | WG "
          "| WG+RB (repeatable; default RMW and WG+RB)\n"
          "  --all               run every scheme\n"
          "  --buffer-entries N  Set-Buffer entries (default 1)\n"
          "  --no-silent-detection\n"
          "\n"
          "hierarchy (DESIGN.md §14)\n"
          "  --l2 KB             add an inclusive write-back L2 of KB "
          "KiB behind the L1\n"
          "  --l2-ways N         L2 associativity (default 8)\n"
          "  --l2-repl P         L2 replacement policy (default lru)\n"
          "  --l2-scheme S       L2 write scheme (default RMW)\n"
          "  --l2-vdd V          L2 supply in volts (default: nominal); "
          "with --vdd-sweep the grid is applied to the L2 instead\n"
          "\n"
          "voltage (DESIGN.md §10)\n"
          "  --vdd V             run at supply voltage V volts "
          "(default: nominal 1.0, model detached)\n"
          "  --vdd-sweep         sweep every scheme over the default "
          "Vdd grid (1.00..0.50 V); prints per-scheme min-Vdd and "
          "energy/EDP curves\n"
          "\n"
          "design-space explorer (DESIGN.md §12)\n"
          "  --explore           cross size x ways x block x repl x "
          "Vdd x scheme x workload, reduce to a Pareto frontier per "
          "workload\n"
          "  --explore-workloads L\n"
          "                      comma list of SPEC profiles, or "
          "'all' (default all 25)\n"
          "  --explore-sizes L   KiB list (default 16,32,64,128)\n"
          "  --explore-ways L    associativity list (default 2,4,8)\n"
          "  --explore-blocks L  block-size list (default 32,64)\n"
          "  --explore-repl L    replacement list (default lru)\n"
          "  --explore-vdd L     volts list (descending), 'grid' for "
          "the default 1.00..0.50 grid, or 'none' for nominal-only "
          "(default none)\n"
          "  --explore-l2-sizes L\n"
          "                      L2 KiB list: every cell becomes a "
          "two-level hierarchy (6T L1, scheme/Vdd axes on the L2)\n"
          "  --checkpoint-dir D  write per-shard checkpoints to D; a "
          "rerun resumes, skipping completed shards byte-identically\n"
          "  --shard-cells N     cells per shard (default 8)\n"
          "  --explore-max-shards N\n"
          "                      stop after executing N shards "
          "(interrupt half of interrupt/resume; 0 = unlimited)\n"
          "\n"
          "execution\n"
          "  --jobs N            worker threads for multi-scheme runs "
          "(default: C8T_JOBS or hardware concurrency)\n"
          "  --stream-cache MB   stream memoization budget in MiB; 0 "
          "disables (default: C8T_STREAM_CACHE_MB or 512)\n"
          "\n"
          "output\n"
          "  --stats             dump the full statistics registry\n"
          "  --stats-json FILE   write per-scheme stats as JSON "
          "(schema-versioned, full histograms)\n"
          "  --csv               print the result table as CSV\n"
          "\n"
          "observability\n"
          "  --chrome-trace FILE write a Perfetto-loadable Chrome trace "
          "(sweep spans; C8T_CHROME_TRACE equivalent)\n"
          "  --trace-events N    also record the last N per-access events "
          "per scheme into the trace (0 = off)\n"
          "  --interval-stats FILE\n"
          "                      append counter-delta snapshots every "
          "--interval accesses (JSON-lines)\n"
          "  --interval N        snapshot period in accesses "
          "(default 100000)\n"
          "  --metrics-out FILE  write a Prometheus-style metrics "
          "exposition (phase times, latency histograms, cache/worker "
          "gauges); implies profiling (C8T_METRICS equivalent)\n"
          "  --progress          heartbeat sweep progress to stderr "
          "(C8T_PROGRESS equivalent)\n"
          "  --help\n"
          "\n"
          "kernels: ";
    bool first = true;
    for (const auto &k : kernelNames()) {
        if (!first)
            os << ", ";
        os << k;
        first = false;
    }
    os << "\nbenchmarks: the 25 calibrated SPEC CPU2006 profiles "
          "(see spec_profiles.cc)\n";
    return os.str();
}

SimOptions
parseOptions(const std::vector<std::string> &args)
{
    SimOptions opt;
    core::JobSpec &job = opt.job;
    core::LevelSpec l2;
    std::uint64_t l2_kb = 0;
    std::string l2_knob; // last --l2-* flag seen (requires --l2)

    auto need_value = [&](std::size_t i, const std::string &flag) {
        if (i + 1 >= args.size())
            throw std::invalid_argument(flag + ": missing value");
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--help" || a == "-h") {
            opt.help = true;
        } else if (a == "--workload") {
            job.workload = need_value(i++, a);
        } else if (a == "--accesses") {
            job.accesses = parseU64(a, need_value(i++, a));
            if (job.accesses == 0)
                throw std::invalid_argument("--accesses: must be > 0");
        } else if (a == "--warmup") {
            job.warmup = parseU64(a, need_value(i++, a));
        } else if (a == "--record") {
            opt.recordTrace = need_value(i++, a);
        } else if (a == "--size") {
            job.cache.sizeBytes =
                core::levelBytesFromKb(parseU64(a, need_value(i++, a)), a);
        } else if (a == "--ways") {
            job.cache.ways = parseU32(a, need_value(i++, a));
        } else if (a == "--block") {
            job.cache.blockBytes = parseU32(a, need_value(i++, a));
        } else if (a == "--repl") {
            job.cache.replacement = mem::parseReplKind(need_value(i++, a));
        } else if (a == "--scheme") {
            job.schemes.push_back(
                core::parseWriteScheme(need_value(i++, a)));
        } else if (a == "--all") {
            job.schemes = {core::WriteScheme::SixTDirect,
                           core::WriteScheme::Rmw,
                           core::WriteScheme::LocalRmw,
                           core::WriteScheme::WordGranular,
                           core::WriteScheme::WriteGrouping,
                           core::WriteScheme::WriteGroupingReadBypass};
        } else if (a == "--buffer-entries") {
            job.bufferEntries = parseU32(a, need_value(i++, a));
            if (job.bufferEntries == 0)
                throw std::invalid_argument(
                    "--buffer-entries: must be >= 1");
        } else if (a == "--l2") {
            l2_kb = parseU64(a, need_value(i++, a));
        } else if (a == "--l2-ways") {
            l2_knob = a;
            l2.ways = parseU32(a, need_value(i++, a));
        } else if (a == "--l2-repl") {
            l2_knob = a;
            l2.repl = mem::parseReplKind(need_value(i++, a));
        } else if (a == "--l2-scheme") {
            l2_knob = a;
            l2.scheme = core::parseWriteScheme(need_value(i++, a));
        } else if (a == "--l2-vdd") {
            l2_knob = a;
            l2.vdd = parseDouble(a, need_value(i++, a));
            if (l2.vdd <= 0.0)
                throw std::invalid_argument("--l2-vdd: must be > 0");
        } else if (a == "--vdd") {
            job.vdd = parseDouble(a, need_value(i++, a));
            if (job.vdd <= 0.0)
                throw std::invalid_argument("--vdd: must be > 0");
        } else if (a == "--vdd-sweep") {
            // --explore wins over --vdd-sweep, whatever their order.
            if (job.kind != core::JobKind::Explore)
                job.kind = core::JobKind::VddSweep;
        } else if (a == "--explore") {
            job.kind = core::JobKind::Explore;
        } else if (a == "--explore-workloads") {
            const std::string v = need_value(i++, a);
            job.exploreWorkloads =
                v == "all" ? std::vector<std::string>{} : splitList(a, v);
        } else if (a == "--explore-sizes") {
            job.exploreSizesKb =
                parseList<std::uint64_t, parseU64>(a, need_value(i++, a));
        } else if (a == "--explore-ways") {
            job.exploreWays =
                parseList<std::uint32_t, parseU32>(a, need_value(i++, a));
        } else if (a == "--explore-blocks") {
            job.exploreBlocks =
                parseList<std::uint32_t, parseU32>(a, need_value(i++, a));
        } else if (a == "--explore-repl") {
            job.exploreRepls.clear();
            for (const std::string &r :
                 splitList(a, need_value(i++, a)))
                job.exploreRepls.push_back(mem::parseReplKind(r));
        } else if (a == "--explore-l2-sizes") {
            job.exploreL2SizesKb =
                parseList<std::uint64_t, parseU64>(a, need_value(i++, a));
        } else if (a == "--explore-vdd") {
            const std::string v = need_value(i++, a);
            if (v == "none")
                job.exploreVdd.clear();
            else if (v == "grid")
                job.exploreVdd = sram::VddModel::defaultGrid();
            else
                job.exploreVdd = parseList<double, parseDouble>(a, v);
        } else if (a == "--checkpoint-dir") {
            job.checkpointDir = need_value(i++, a);
        } else if (a == "--shard-cells") {
            job.shardCells = static_cast<std::size_t>(
                parseU64(a, need_value(i++, a)));
            if (job.shardCells == 0)
                throw std::invalid_argument(
                    "--shard-cells: must be >= 1");
        } else if (a == "--explore-max-shards") {
            job.exploreMaxShards = parseU64(a, need_value(i++, a));
        } else if (a == "--jobs") {
            opt.jobs = parseWorkerCount(a, need_value(i++, a), false);
        } else if (a == "--stream-cache") {
            opt.streamCacheBytes = parseStreamCacheMb(a, need_value(i++, a));
        } else if (a == "--no-silent-detection") {
            job.silentDetection = false;
        } else if (a == "--stats") {
            opt.dumpStats = true;
        } else if (a == "--stats-json") {
            opt.statsJsonFile = need_value(i++, a);
        } else if (a == "--chrome-trace") {
            opt.chromeTraceFile = need_value(i++, a);
        } else if (a == "--trace-events") {
            opt.traceEvents = parseU64(a, need_value(i++, a));
        } else if (a == "--metrics-out") {
            opt.metricsOutFile = need_value(i++, a);
        } else if (a == "--interval-stats") {
            opt.intervalStatsFile = need_value(i++, a);
        } else if (a == "--interval") {
            opt.intervalAccesses = parseU64(a, need_value(i++, a));
            if (opt.intervalAccesses == 0)
                throw std::invalid_argument("--interval: must be > 0");
        } else if (a == "--progress") {
            opt.progress = true;
        } else if (a == "--csv") {
            opt.csv = true;
        } else {
            throw std::invalid_argument("unknown option: " + a +
                                        " (try --help)");
        }
    }

    if (l2_kb) {
        l2.sizeKb = l2_kb;
        job.levels.push_back(l2);
    } else if (!l2_knob.empty()) {
        throw std::invalid_argument(l2_knob + ": requires --l2 KB");
    }
    if (!opt.help)
        job.cache.validate();
    return opt;
}

std::vector<std::string>
kernelNames()
{
    return {"stream_copy", "stencil3", "pointer_chase", "hash_update",
            "transpose", "fill"};
}

std::unique_ptr<trace::AccessGenerator>
makeWorkload(const std::string &spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument(
            "workload must be spec:<bench>, kernel:<name> or "
            "trace:<path>, got '" + spec + "'");
    }
    const std::string kind = spec.substr(0, colon);
    const std::string name = spec.substr(colon + 1);

    if (kind == "spec") {
        try {
            return std::make_unique<trace::MarkovStream>(
                trace::specProfile(name));
        } catch (const std::out_of_range &) {
            throw std::invalid_argument("unknown SPEC benchmark: " + name);
        }
    }
    if (kind == "trace")
        return std::make_unique<trace::TraceReader>(name);
    if (kind == "kernel") {
        // Kernel shapes sized so the default run lengths exercise them
        // meaningfully; pass a trace file for full control.
        if (name == "stream_copy")
            return std::make_unique<trace::StreamCopyKernel>(1'000'000,
                                                             4);
        if (name == "stencil3")
            return std::make_unique<trace::StencilKernel>(1'000'000, 4);
        if (name == "pointer_chase")
            return std::make_unique<trace::PointerChaseKernel>(
                1 << 16, 8'000'000);
        if (name == "hash_update")
            return std::make_unique<trace::HashUpdateKernel>(
                1 << 14, 4'000'000, 0.35, 1.5);
        if (name == "transpose")
            return std::make_unique<trace::TransposeKernel>(1024, 8);
        if (name == "fill")
            return std::make_unique<trace::FillKernel>(500'000, 8);
        throw std::invalid_argument("unknown kernel: " + name);
    }
    throw std::invalid_argument("unknown workload kind: " + kind);
}

} // namespace c8t::app

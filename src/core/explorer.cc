/**
 * @file
 * Design-space explorer implementation.
 */

#include "core/explorer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/decimal.hh"
#include "core/policies.hh"
#include "core/stream_cache.hh"
#include "core/sweep.hh"
#include "core/vdd_sweep.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/rng.hh"
#include "trace/spec_profiles.hh"

namespace c8t::core
{

namespace
{

/** Exact (round-trippable) double serialization for signatures and
 *  checkpoints. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Parse a hexfloat (or any strtod-accepted) token exactly. */
double
parseDoubleToken(const std::string &tok)
{
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0' || end == tok.c_str())
        throw std::runtime_error("bad number \"" + tok + "\"");
    return v;
}

/** One cell of the cross-product: its workload and the
 *  operating-point sweep that evaluates it. */
struct CellSweep
{
    std::string workload;
    VddSweepSpec sweep;
};

/**
 * Cell @p index of the cross-product, decoded workload-major so that
 * adjacent cells share the workload stream. The L2 axis is the
 * innermost coordinate, so a single-level spec decodes exactly as it
 * always did. A hierarchy cell adds an L2 of the axis capacity, 8
 * ways, the L1's block and replacement policy: the L1 stays a 6T
 * direct-write cache at nominal supply while the scheme axis and the
 * grid ride on the L2. An empty grid is the nominal-only mode.
 */
CellSweep
decodeCell(const ExplorerSpec &spec, std::uint64_t index)
{
    const auto coord = [&index](std::size_t axis) {
        const std::size_t i = index % axis;
        index /= axis;
        return i;
    };
    const std::size_t l2 =
        coord(std::max<std::size_t>(1, spec.l2SizesKb.size()));
    CellSweep cell;
    VddSweepSpec &v = cell.sweep;
    v.cache.replacement = spec.replacements[coord(spec.replacements.size())];
    v.cache.blockBytes = spec.blocks[coord(spec.blocks.size())];
    v.cache.ways = spec.ways[coord(spec.ways.size())];
    v.cache.sizeBytes = spec.sizesKb[coord(spec.sizesKb.size())] * 1024;
    cell.workload = spec.workloads[index];

    v.grid = spec.vddGrid;
    v.model = spec.model;
    v.failureThreshold = spec.failureThreshold;
    v.runSeed = spec.runSeed;
    v.faultRows = spec.faultRows;
    v.schemes = spec.schemes;
    if (!spec.l2SizesKb.empty()) {
        LevelConfig lower;
        lower.cache.sizeBytes = spec.l2SizesKb[l2] * 1024;
        lower.cache.ways = 8;
        lower.cache.blockBytes = v.cache.blockBytes;
        lower.cache.replacement = v.cache.replacement;
        v.lowerLevels = {lower};
    }
    const trace::StreamParams profile = trace::specProfile(cell.workload);
    v.makeGenerator = [profile]() {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    v.streamKey = trace::streamSignature(profile);
    return cell;
}

/** Append one summary per scheme of @p cell, each taken at its curve's
 *  min-Vdd point (the highest grid point when none is operational). */
void
summarizeCell(const CellSweep &cell, const std::vector<VddCurve> &curves,
              std::vector<DesignPointSummary> &out)
{
    const mem::CacheConfig &cache = cell.sweep.cache;
    for (const VddCurve &c : curves) {
        const VddPointResult *at_min = minVddPoint(c);
        const VddPointResult &pt = at_min ? *at_min : c.points.front();
        DesignPointSummary p;
        p.workload = cell.workload;
        p.sizeBytes = cache.sizeBytes;
        p.ways = cache.ways;
        p.blockBytes = cache.blockBytes;
        p.l2SizeBytes = cell.sweep.lowerLevels.empty()
                            ? 0
                            : cell.sweep.lowerLevels.front().cache.sizeBytes;
        p.repl = cache.replacement;
        p.scheme = c.scheme;
        p.cell = c.cell;
        p.operational = at_min != nullptr;
        p.minVdd = c.minVdd;
        p.energyPerAccess = pt.energyPerAccess;
        p.edpPerAccess = pt.edpPerAccess;
        p.cyclesPerAccess = pt.cyclesPerAccess;
        if (pt.run.requests > 0) {
            p.missRate = static_cast<double>(pt.run.misses) /
                         static_cast<double>(pt.run.requests);
        }
        out.push_back(std::move(p));
    }
}

std::string
shardPath(const std::string &dir, std::uint64_t shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

/** Serialize one shard's reduced summaries (atomic: tmp + rename). */
void
writeShardCheckpoint(const std::string &dir, std::uint64_t shard,
                     const std::string &signature, std::uint64_t first,
                     std::uint64_t count, std::uint64_t skipped,
                     const std::vector<DesignPointSummary> &points)
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    const std::string path = shardPath(dir, shard);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            throw std::runtime_error(
                "explorer: cannot write checkpoint \"" + tmp + "\"");
        os << "c8t-explore-shard 1\n";
        os << "sig " << signature << "\n";
        os << "shard " << shard << "\n";
        os << "cells " << first << " " << count << "\n";
        os << "skipped " << skipped << "\n";
        os << "points " << points.size() << "\n";
        for (const DesignPointSummary &p : points) {
            os << "p " << p.workload << " " << p.sizeBytes << " "
               << p.ways << " " << p.blockBytes << " "
               << mem::toString(p.repl) << " " << p.scheme << " "
               << (p.operational ? 1 : 0) << " " << hexDouble(p.minVdd)
               << " " << hexDouble(p.energyPerAccess) << " "
               << hexDouble(p.edpPerAccess) << " "
               << hexDouble(p.cyclesPerAccess) << " "
               << hexDouble(p.missRate);
            // Trailing optional field: hierarchy points carry their
            // L2 capacity; single-level lines stay byte-identical to
            // the historical format.
            if (p.l2SizeBytes)
                os << " " << p.l2SizeBytes;
            os << "\n";
        }
        os << "end\n";
        os.flush();
        if (!os)
            throw std::runtime_error(
                "explorer: short write to checkpoint \"" + tmp + "\"");
    }
    std::filesystem::rename(tmp, path);
}

/**
 * Load one shard checkpoint; returns the skipped-cell count and
 * appends the points to @p out. A checkpoint holds one point per
 * scheme of every cell it did not skip; any field that does not parse,
 * or counts that do not add up, fail with an error naming the file.
 */
std::uint64_t
loadShardCheckpoint(const std::string &path,
                    const std::string &signature, std::uint64_t shard,
                    std::uint64_t first, std::uint64_t count,
                    std::size_t schemes,
                    std::vector<DesignPointSummary> &out)
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("explorer: cannot read checkpoint \"" +
                                 path + "\"");
    const auto fail = [&](const std::string &what) -> std::runtime_error {
        return std::runtime_error("explorer: malformed checkpoint \"" +
                                  path + "\": " + what);
    };
    std::string line;
    if (!std::getline(is, line) || line != "c8t-explore-shard 1")
        throw fail("bad magic");
    if (!std::getline(is, line) || line.rfind("sig ", 0) != 0)
        throw fail("missing signature");
    if (line.substr(4) != signature) {
        throw std::invalid_argument(
            "explorer: checkpoint \"" + path +
            "\" was written by a different spec/run window; use a "
            "fresh --checkpoint-dir");
    }
    const auto parseHeader = [&](const char *keyword,
                                 std::size_t n_fields,
                                 std::uint64_t *a, std::uint64_t *b) {
        if (!std::getline(is, line))
            throw fail(std::string("missing ") + keyword + " line");
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag >> *a) || tag != keyword ||
            (n_fields == 2 && !(ls >> *b)))
            throw fail(std::string("bad ") + keyword + " line");
    };
    std::uint64_t f_shard = 0, f_first = 0, f_count = 0, skipped = 0,
                  n_points = 0, unused = 0;
    parseHeader("shard", 1, &f_shard, &unused);
    if (f_shard != shard)
        throw fail("shard index mismatch");
    parseHeader("cells", 2, &f_first, &f_count);
    if (f_first != first || f_count != count)
        throw fail("cell range mismatch");
    parseHeader("skipped", 1, &skipped, &unused);
    if (skipped > count)
        throw fail("more cells skipped than the shard holds");
    parseHeader("points", 1, &n_points, &unused);
    if (n_points != satMul(count - skipped, schemes))
        throw fail("point count does not match the cells run");
    for (std::uint64_t i = 0; i < n_points; ++i) {
        if (!std::getline(is, line))
            throw fail("truncated point list");
        std::istringstream ls(line);
        std::string tag, size, ways, block, repl_name, op_tok, min_vdd,
            energy, edp, cycles, miss, l2, rest;
        DesignPointSummary p;
        if (!(ls >> tag >> p.workload >> size >> ways >> block >>
              repl_name >> p.scheme >> op_tok >> min_vdd >> energy >> edp >>
              cycles >> miss) ||
            tag != "p" || (ls >> l2 && ls >> rest))
            throw fail("bad point line");
        // Digits only: a stream reads "-1" as 2^64 - 1.
        const auto whole = [&](const std::string &tok, std::uint64_t max) {
            const std::optional<std::uint64_t> v = parseDecimal(tok);
            if (!v || *v > max)
                throw fail("bad count \"" + tok + "\"");
            return *v;
        };
        p.sizeBytes = whole(size, UINT64_MAX);
        p.ways = static_cast<std::uint32_t>(whole(ways, UINT32_MAX));
        p.blockBytes = static_cast<std::uint32_t>(whole(block, UINT32_MAX));
        // The trailing L2 capacity is optional.
        if (!l2.empty())
            p.l2SizeBytes = whole(l2, UINT64_MAX);
        if (op_tok != "0" && op_tok != "1")
            throw fail("bad operational flag \"" + op_tok + "\"");
        p.operational = op_tok == "1";
        try {
            p.repl = mem::parseReplKind(repl_name);
            p.cell = cellOf(parseWriteScheme(p.scheme));
            p.minVdd = parseDoubleToken(min_vdd);
            p.energyPerAccess = parseDoubleToken(energy);
            p.edpPerAccess = parseDoubleToken(edp);
            p.cyclesPerAccess = parseDoubleToken(cycles);
            p.missRate = parseDoubleToken(miss);
        } catch (const std::exception &e) {
            throw fail(e.what());
        }
        out.push_back(std::move(p));
    }
    if (!std::getline(is, line) || line != "end")
        throw fail("missing end marker");
    return skipped;
}

/** One executed shard from expansion to checkpoint: its valid cells,
 *  their operating-point jobs and the sweep running them. */
struct ShardRun
{
    std::uint64_t shard = 0;
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::uint64_t skipped = 0; ///< invalid geometries
    std::chrono::steady_clock::time_point t0;
    std::vector<CellSweep> cells;
    std::vector<VddFaultTable> faults; ///< written by the jobs
    std::vector<SweepJob> jobs;
    std::vector<std::size_t> cellJobs; ///< [vi]: first job of cell vi
    /** Declared last, so destruction abandons the jobs (drops the
     *  unclaimed, waits for the running) before the state they read
     *  and write goes. */
    std::optional<PendingSweep> sweep;
};

/**
 * Expand shard @p shard (@p count cells from @p first) into its
 * operating-point jobs and start them on @p sweeper. Heap-allocated:
 * the running jobs hold references into it.
 */
std::unique_ptr<ShardRun>
startShard(const ExplorerSpec &spec, const RunConfig &rc,
           const ParallelSweeper &sweeper, std::uint64_t shard,
           std::uint64_t first, std::uint64_t count)
{
    auto run = std::make_unique<ShardRun>();
    run->shard = shard;
    run->first = first;
    run->count = count;
    run->t0 = std::chrono::steady_clock::now();

    // Expand the shard's valid cells into operating-point sweeps.
    // Invalid geometries (e.g. a set smaller than one block) are
    // skipped — the verdict depends only on the spec, so it is
    // identical on every run/resume.
    for (std::uint64_t ci = first; ci < first + count; ++ci) {
        CellSweep cell = decodeCell(spec, ci);
        const mem::CacheConfig &cache = cell.sweep.cache;
        // An L2 that cannot hold the L1 breaks inclusion: skipped like
        // any other invalid geometry, deterministically from the spec.
        try {
            cache.validate();
            validateLevels(cache, cell.sweep.lowerLevels);
        } catch (const std::invalid_argument &) {
            ++run->skipped;
            continue;
        }
        run->cells.push_back(std::move(cell));
    }

    // Each cell appends its operating-point jobs (one per timing class
    // and plan group; each runs its own runs' fault-map campaigns on
    // its worker). cellJobs[vi] is the first job of cell vi, so a
    // cell's runs are found whatever the job layout.
    run->faults.resize(run->cells.size());
    run->cellJobs.assign(run->cells.size() + 1, 0);
    for (std::size_t vi = 0; vi < run->cells.size(); ++vi) {
        run->cellJobs[vi + 1] =
            run->cellJobs[vi] +
            appendOperatingPointJobs(run->cells[vi].sweep, run->faults[vi],
                                     run->jobs);
    }
    if (!run->jobs.empty()) {
        run->sweep.emplace(sweeper.start(
            run->jobs, rc, spec.label + ":shard" + std::to_string(shard)));
    }
    return run;
}

} // anonymous namespace

void
ExplorerSpec::validate() const
{
    if (workloads.empty())
        throw std::invalid_argument("ExplorerSpec: no workloads");
    for (const std::string &w : workloads) {
        try {
            trace::specProfile(w);
        } catch (const std::out_of_range &) {
            throw std::invalid_argument(
                "ExplorerSpec: unknown workload \"" + w + "\"");
        }
    }
    if (sizesKb.empty())
        throw std::invalid_argument("ExplorerSpec: no cache sizes");
    if (ways.empty())
        throw std::invalid_argument("ExplorerSpec: no associativities");
    if (blocks.empty())
        throw std::invalid_argument("ExplorerSpec: no block sizes");
    if (replacements.empty())
        throw std::invalid_argument(
            "ExplorerSpec: no replacement policies");
    if (schemes.empty())
        throw std::invalid_argument("ExplorerSpec: no schemes");
    for (const std::uint64_t kb : l2SizesKb) {
        if (kb == 0)
            throw std::invalid_argument(
                "ExplorerSpec: L2 sizes must be > 0");
    }
    validateOperatingPoints(vddGrid, faultRows, model, "ExplorerSpec");
    if (cellsPerShard == 0)
        throw std::invalid_argument(
            "ExplorerSpec: cellsPerShard must be >= 1");
}

std::uint64_t
ExplorerSpec::cellCount() const
{
    std::uint64_t n = workloads.size();
    for (const std::uint64_t axis :
         {sizesKb.size(), ways.size(), blocks.size(), replacements.size(),
          std::max<std::size_t>(1, l2SizesKb.size())})
        n = satMul(n, axis);
    return n;
}

std::uint64_t
ExplorerSpec::runsPerCell() const
{
    return satMul(schemes.size(), std::max<std::size_t>(1, vddGrid.size()));
}

std::uint64_t
ExplorerSpec::configRunCount() const
{
    return satMul(cellCount(), runsPerCell());
}

std::uint64_t
ExplorerSpec::shardCount() const
{
    const std::uint64_t cells = cellCount();
    return cells / cellsPerShard + (cells % cellsPerShard != 0);
}

std::string
ExplorerSpec::signature(const RunConfig &rc) const
{
    std::ostringstream os;
    os << "c8t-explore-sig 1";
    os << "; workloads";
    for (const std::string &w : workloads)
        os << " " << w;
    os << "; sizes_kb";
    for (const std::uint64_t v : sizesKb)
        os << " " << v;
    os << "; ways";
    for (const std::uint32_t v : ways)
        os << " " << v;
    os << "; blocks";
    for (const std::uint32_t v : blocks)
        os << " " << v;
    os << "; repl";
    for (const mem::ReplKind r : replacements)
        os << " " << mem::toString(r);
    os << "; schemes";
    for (const WriteScheme s : schemes)
        os << " " << toString(s);
    // Appended only when the axis is in use, so every historical
    // single-level signature (and its checkpoints) stays valid.
    if (!l2SizesKb.empty()) {
        os << "; l2_sizes_kb";
        for (const std::uint64_t v : l2SizesKb)
            os << " " << v;
    }
    os << "; grid";
    for (const double v : vddGrid)
        os << " " << hexDouble(v);
    os << "; model " << hexDouble(model.nominalVdd) << " "
       << hexDouble(model.alpha) << " " << hexDouble(model.leakDecayV)
       << " " << hexDouble(model.clockGhz) << " "
       << hexDouble(model.stability.vth) << " "
       << hexDouble(model.stability.kHold) << " "
       << hexDouble(model.stability.kRead6T) << " "
       << hexDouble(model.stability.kWrite) << " "
       << hexDouble(model.stability.sigmaVth);
    os << "; threshold " << hexDouble(failureThreshold);
    os << "; seed " << runSeed;
    os << "; fault_rows " << faultRows;
    os << "; cells_per_shard " << cellsPerShard;
    os << "; window " << rc.warmupAccesses << " " << rc.measureAccesses;
    return os.str();
}

std::vector<const DesignPointSummary *>
ExploreResult::frontier(const std::string &workload) const
{
    std::vector<const DesignPointSummary *> out;
    for (const DesignPointSummary &p : summaries) {
        if (p.onFrontier && p.workload == workload)
            out.push_back(&p);
    }
    return out;
}

void
ExploreResult::dumpJson(std::ostream &os) const
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    os << "{\"schema_version\":" << stats::Registry::kJsonSchemaVersion
       << ",\"kind\":\"explore\""
       << ",\"label\":\"" << stats::jsonEscape(label) << "\""
       << ",\"workloads\":[";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        os << (i ? "," : "") << '"' << stats::jsonEscape(workloads[i])
           << '"';
    }
    os << "],\"vdd_grid\":[";
    for (std::size_t i = 0; i < vddGrid.size(); ++i) {
        os << (i ? "," : "");
        stats::jsonNumber(os, vddGrid[i]);
    }
    os << "],\"failure_threshold\":";
    stats::jsonNumber(os, failureThreshold);
    os << ",\"cells\":" << cellsTotal
       << ",\"cells_skipped\":" << cellsSkipped
       << ",\"config_runs\":" << configRunsTotal
       << ",\"completed\":" << (completed ? "true" : "false")
       << ",\"frontiers\":[";
    // An incomplete explore has no frontier to speak of (dominance
    // over a partial point set would be misleading) — emit the spec
    // echo and accounting only.
    bool first_workload = true;
    if (completed) {
        for (const std::string &w : workloads) {
            std::uint64_t n_points = 0, n_operational = 0;
            for (const DesignPointSummary &p : summaries) {
                if (p.workload != w)
                    continue;
                ++n_points;
                if (p.operational)
                    ++n_operational;
            }
            os << (first_workload ? "" : ",") << "{\"workload\":\""
               << stats::jsonEscape(w) << "\""
               << ",\"points\":" << n_points
               << ",\"operational\":" << n_operational
               << ",\"frontier\":[";
            bool first_point = true;
            for (const DesignPointSummary &p : summaries) {
                if (!p.onFrontier || p.workload != w)
                    continue;
                os << (first_point ? "" : ",") << "{\"size_kb\":"
                   << p.sizeBytes / 1024 << ",\"ways\":" << p.ways
                   << ",\"block\":" << p.blockBytes;
                // Gated key: absent for single-level documents.
                if (p.l2SizeBytes)
                    os << ",\"l2_kb\":" << p.l2SizeBytes / 1024;
                os << ",\"repl\":\""
                   << mem::toString(p.repl) << "\",\"scheme\":\""
                   << stats::jsonEscape(p.scheme) << "\",\"cell\":\""
                   << sram::toString(p.cell) << "\",\"min_vdd\":";
                stats::jsonNumber(os, p.minVdd);
                os << ",\"energy_per_access\":";
                stats::jsonNumber(os, p.energyPerAccess);
                os << ",\"edp_per_access\":";
                stats::jsonNumber(os, p.edpPerAccess);
                os << ",\"cycles_per_access\":";
                stats::jsonNumber(os, p.cyclesPerAccess);
                os << ",\"miss_rate\":";
                stats::jsonNumber(os, p.missRate);
                os << '}';
                first_point = false;
            }
            os << "]}";
            first_workload = false;
        }
    }
    os << "]}";
}

ExploreResult
runExplore(const ExplorerSpec &spec, const RunConfig &rc, unsigned workers)
{
    spec.validate();
    const auto t0 = std::chrono::steady_clock::now();

    // Stream-cache hit rate of this explore's lookups so far.
    const StreamCache::Stats cache_before = globalStreamCache().stats();
    const auto stream_hit_rate = [&cache_before] {
        const StreamCache::Stats now = globalStreamCache().stats();
        const std::uint64_t hits = now.hits - cache_before.hits;
        const std::uint64_t lookups =
            hits + (now.misses - cache_before.misses);
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    };

    ExploreResult result;
    result.label = spec.label;
    result.workloads = spec.workloads;
    result.vddGrid = spec.vddGrid;
    result.failureThreshold = spec.failureThreshold;
    result.cellsTotal = spec.cellCount();
    result.configRunsTotal = spec.configRunCount();
    result.shardsTotal = spec.shardCount();

    const bool ckpt_on = !spec.checkpointDir.empty();
    std::string sig;
    if (ckpt_on) {
        std::filesystem::create_directories(spec.checkpointDir);
        sig = spec.signature(rc);
    }

    // Shard execution order: identity, or a seeded Fisher-Yates
    // shuffle. Results are order-invariant (summaries are sorted
    // canonically below); the shuffle exists so tests can prove it.
    std::vector<std::uint64_t> order(result.shardsTotal);
    std::iota(order.begin(), order.end(), 0);
    if (spec.shuffleShards && order.size() > 1) {
        std::uint64_t state = spec.shuffleSeed;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
            const std::size_t j = static_cast<std::size_t>(
                trace::splitmix64(state) % (i + 1));
            std::swap(order[i], order[j]);
        }
    }

    ParallelSweeper sweeper(workers);
    sweeper.setProgress(false); // the explorer heartbeats per shard

    const bool progress_on = ParallelSweeper::defaultProgress();
    auto last_beat = t0;
    std::uint64_t shards_accounted = 0;
    std::uint64_t cells_accounted = 0;

    // Explorer progress gauges and the stderr heartbeat (throttled but
    // for the final beat), after every shard accounted (loaded or
    // executed) and once at the end.
    const auto note_progress = [&](bool final_beat) {
        const auto now = std::chrono::steady_clock::now();
        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        obs::Metrics::ExplorerSnapshot snap;
        snap.shardsDone = shards_accounted;
        snap.shardsTotal = result.shardsTotal;
        snap.configRunsDone = cells_accounted * spec.runsPerCell();
        snap.configRunsTotal = result.configRunsTotal;
        snap.configRunsPerSec =
            elapsed > 0.0
                ? static_cast<double>(result.configRunsExecuted) / elapsed
                : 0.0;
        snap.etaSeconds =
            snap.configRunsPerSec > 0.0 &&
                    snap.configRunsTotal > snap.configRunsDone
                ? static_cast<double>(snap.configRunsTotal -
                                      snap.configRunsDone) /
                      snap.configRunsPerSec
                : 0.0;
        obs::globalMetrics().noteExplorer(snap);
        if (!progress_on ||
            (!final_beat &&
             std::chrono::duration<double>(now - last_beat).count() < 0.5))
            return;
        last_beat = now;
        std::fprintf(
            stderr,
            "\r[%s] shards %llu/%llu · config-runs %llu/%llu · "
            "%.1f runs/s · ETA %.0fs · cache-hit %.0f%%%s",
            spec.label.c_str(),
            static_cast<unsigned long long>(snap.shardsDone),
            static_cast<unsigned long long>(snap.shardsTotal),
            static_cast<unsigned long long>(snap.configRunsDone),
            static_cast<unsigned long long>(snap.configRunsTotal),
            snap.configRunsPerSec, snap.etaSeconds,
            100.0 * stream_hit_rate(), final_beat ? "\n" : "");
        std::fflush(stderr);
    };

    // Wait for a started shard, reduce it to summaries and checkpoint
    // it, on this thread.
    const auto complete_shard = [&](ShardRun &run) {
        std::vector<DesignPointSummary> shard_points;
        if (run.sweep) {
            const auto runs = run.sweep->finish();
            shard_points.reserve(run.cells.size() * spec.schemes.size());
            for (std::size_t vi = 0; vi < run.cells.size(); ++vi) {
                const auto cell_runs = std::span(runs).subspan(
                    run.cellJobs[vi], run.cellJobs[vi + 1] - run.cellJobs[vi]);
                summarizeCell(run.cells[vi],
                              reduceOperatingPoints(run.cells[vi].sweep,
                                                    run.faults[vi],
                                                    cell_runs),
                              shard_points);
            }
        }
        if (ckpt_on) {
            writeShardCheckpoint(spec.checkpointDir, run.shard, sig,
                                 run.first, run.count, run.skipped,
                                 shard_points);
        }
        result.summaries.insert(
            result.summaries.end(),
            std::make_move_iterator(shard_points.begin()),
            std::make_move_iterator(shard_points.end()));
        result.cellsSkipped += run.skipped;
        result.configRunsExecuted +=
            (run.count - run.skipped) * spec.runsPerCell();
        ++result.shardsExecuted;
        ++shards_accounted;
        cells_accounted += run.count;
        obs::globalMetrics().recordShardWallNs(static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - run.t0)
                .count()));
        note_progress(false);
    };

    // Two shards in flight: shard k+1 is expanded and queued before
    // shard k is completed, so the workers run it while this thread
    // reduces and checkpoints shard k. At most two shards' jobs are
    // alive. On an exception the destructors abandon the shard still
    // in flight: its unclaimed jobs are dropped and its running ones
    // finish before runExplore returns.
    std::uint64_t shards_started = 0;
    std::unique_ptr<ShardRun> in_flight;
    for (const std::uint64_t shard : order) {
        const std::uint64_t first = shard * spec.cellsPerShard;
        const std::uint64_t count = std::min<std::uint64_t>(
            spec.cellsPerShard, result.cellsTotal - first);
        const std::string path =
            ckpt_on ? shardPath(spec.checkpointDir, shard)
                    : std::string();

        if (ckpt_on && std::filesystem::exists(path)) {
            result.cellsSkipped +=
                loadShardCheckpoint(path, sig, shard, first, count,
                                    spec.schemes.size(), result.summaries);
            ++result.shardsResumed;
            ++shards_accounted;
            cells_accounted += count;
            note_progress(false);
        } else if (!spec.maxShards || shards_started < spec.maxShards) {
            ++shards_started;
            std::unique_ptr<ShardRun> next =
                startShard(spec, rc, sweeper, shard, first, count);
            if (in_flight)
                complete_shard(*in_flight);
            in_flight = std::move(next);
        }
        // Else the shard budget is spent and this shard has no
        // checkpoint: leave it for the next run.
    }
    if (in_flight)
        complete_shard(*in_flight);

    result.completed = shards_accounted == result.shardsTotal;

    // Canonical order: spec axes cannot leak execution order into the
    // result document.
    std::sort(result.summaries.begin(), result.summaries.end(),
              [](const DesignPointSummary &a,
                 const DesignPointSummary &b) {
                  return std::tie(a.workload, a.sizeBytes, a.ways,
                                  a.blockBytes, a.repl, a.l2SizeBytes,
                                  a.scheme) <
                         std::tie(b.workload, b.sizeBytes, b.ways,
                                  b.blockBytes, b.repl, b.l2SizeBytes,
                                  b.scheme);
              });

    // Pareto frontier per workload over the operational points:
    // minimize (energy/access, EDP/access, min-Vdd). A point is
    // dominated when another is no worse on all three and strictly
    // better on one; exact ties survive together.
    if (result.completed) {
        for (const std::string &w : spec.workloads) {
            std::vector<DesignPointSummary *> pts;
            for (DesignPointSummary &p : result.summaries) {
                if (p.workload == w && p.operational)
                    pts.push_back(&p);
            }
            for (DesignPointSummary *p : pts) {
                bool dominated = false;
                for (const DesignPointSummary *q : pts) {
                    if (q == p)
                        continue;
                    const bool no_worse =
                        q->energyPerAccess <= p->energyPerAccess &&
                        q->edpPerAccess <= p->edpPerAccess &&
                        q->minVdd <= p->minVdd;
                    const bool better =
                        q->energyPerAccess < p->energyPerAccess ||
                        q->edpPerAccess < p->edpPerAccess ||
                        q->minVdd < p->minVdd;
                    if (no_worse && better) {
                        dominated = true;
                        break;
                    }
                }
                p->onFrontier = !dominated;
            }
        }
    }

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    result.wallSeconds = wall;
    result.configRunsPerSec =
        wall > 0.0 ? static_cast<double>(result.configRunsExecuted) / wall
                   : 0.0;
    result.streamCacheHitRate = stream_hit_rate();
    note_progress(true);
    // The last shard's explorer snapshot postdates its sweep's rewrite.
    obs::writeGlobalMetrics();
    return result;
}

} // namespace c8t::core
